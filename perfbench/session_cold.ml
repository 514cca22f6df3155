(* Workload [session-cold]: thin clients. A 3-node [Cluster.launch]
   (nothing durable) with [Session.create] on every node; [nproc]
   callers, each with its own [Session_client] connected to a different
   node, run exclusive [with_lock] with an empty CS on a lock drawn
   uniformly from 32. Many cold locks and few callers keep Q-lists about
   one entry long: the grant path is the client library, [Wire.Client]
   frames, the session serve thread and per-lock pump, [Node_runner] and
   one protocol round.

   Each caller follows its own Poisson schedule (an open loop): a
   closed loop saturated both cores of the 2-core host it was tuned on,
   and its rate then followed the neighbours' load (spread 0.40 over ten
   runs). An arrival due while its caller's previous call is still
   running waits for it, and counts that wait. After the measured
   window the untraced run drives the same callers as a closed loop for
   [burst] seconds and reports that capacity per layer; [rate] is a
   fixed share of it as measured on the tuning host.

   At most one caller per node: the traced run pairs a grant with its
   node's latest request and CS-entry steps, which is only right while
   the caller is the node's one source of requests. *)

let n = 3
let nlocks = 32
let lock_name i = Printf.sprintf "cold-%d" i
let warmup = 1.0
let setups = 15

(* Offered load per caller, arrivals per second: a fifth or less of the
   closed-loop capacity measured on the tuning host (see README.md), so
   a grant rarely waits behind its caller's previous one and the cores
   keep headroom. *)
let rate = 100.0
let burst = 2.0

(* Caller [c]'s arrivals as (due seconds after the start, lock), a
   function of the seed alone. *)
let schedule ~seed ~duration c =
  let g = Common.rng ~seed (100 + c) in
  let rec go t acc =
    let t = t -. (log (1.0 -. Simkit.Rng.uniform g) /. rate) in
    if t >= duration then Array.of_list (List.rev acc)
    else go t ((t, Simkit.Rng.int g nlocks) :: acc)
  in
  go 0.0 []

module Make
    (A : Node_durable.RESILIENT)
    (C : Wire.CODEC with type message = A.message)
    (Mode : sig
      val traced : bool
    end) =
struct
  module Cl = Netkit.Cluster.Make (A) (C)
  module Se = Netkit.Session.Make (A) (C)

  type t = {
    cluster : Cl.t;
    servers : Se.t array;
    clients : Netkit.Session_client.t array;
  }

  (* Returns the set-up's process CPU seconds, as in [Node_durable]. *)
  let setup ~seed ~callers =
    let t0 = Sys.time () in
    let cluster =
      Cl.launch ~base_port:(20000 + (Unix.getpid () mod 20000)) ~seed
        ~locks:(List.init nlocks lock_name) (Common.live_config n)
    in
    let servers =
      Array.init n (fun i ->
          Se.create ~fencing:Dmutex_store.Protocol_view.fencing_of_state
            ~node:(Cl.node cluster i)
            ~addr:{ Netkit.Transport.host = "127.0.0.1"; port = 0 }
            ())
    in
    let clients =
      Array.init callers (fun c ->
          Netkit.Session_client.connect ~seed:(seed + c)
            ~addrs:[ { Netkit.Transport.host = "127.0.0.1"; port = Se.port servers.(c) } ]
            ())
    in
    (match
       Netkit.Session_client.with_lock ~timeout:10.0 ~lock:(lock_name 0)
         clients.(0) (fun ~fencing:_ -> ())
     with
    | Ok () -> ()
    | Error e ->
        failwith ("session-cold: first grant: " ^ Netkit.Session_client.string_of_error e));
    ({ cluster; servers; clients }, Sys.time () -. t0)

  let shutdown t =
    Array.iter Netkit.Session_client.close t.clients;
    Array.iter Se.shutdown t.servers;
    Cl.shutdown t.cluster

  type sample = {
    caller : int;
    seq : int;
    lock : int;
    due : float;
    t0 : float;  (** [with_lock] called. *)
    granted : float;  (** Its CS began. *)
    t1 : float;  (** [with_lock] returned. *)
    rq : Spans.step option;
    en : Spans.step option;
  }

  type caller_result = {
    samples : sample list;  (** Traced runs only. *)
    times : Float.Array.t;
    lats : Float.Array.t;  (** ms *)
    count : int;
    attempted : int;
    failed : int;
    lags : float list;  (** ms the call started after its due time *)
    busy_waits : float list;  (** the same, for arrivals due while busy *)
  }

  let cap = 1 lsl 20

  (* Closed-loop capacity: every caller calls [with_lock] back to back
     on seeded lock draws for [burst] seconds. Returns grants per second
     and the calls made and failed. *)
  let capacity ~seed ~checks ~fenced t =
    let callers = Array.length t.clients in
    let calls = Array.make callers 0 and failed = Array.make callers 0 in
    let t0 = Common.now () in
    let caller c () =
      let g = Common.rng ~seed (200 + c) in
      while Common.now () < t0 +. burst do
        let k = Simkit.Rng.int g nlocks in
        calls.(c) <- calls.(c) + 1;
        match
          Netkit.Session_client.with_lock ~lock:(lock_name k) t.clients.(c)
            (fun ~fencing -> fenced k fencing)
        with
        | Ok () -> ()
        | Error e ->
            failed.(c) <- failed.(c) + 1;
            Common.Checks.fail checks
              ("client error: " ^ Netkit.Session_client.string_of_error e)
      done
    in
    List.iter Thread.join (List.init callers (fun c -> Thread.create (caller c) ()));
    let sum = Array.fold_left ( + ) 0 in
    (float_of_int (sum calls - sum failed) /. (Common.now () -. t0), sum calls, sum failed)

  let run ~seed ~seconds ~callers =
    if callers < 1 || callers > n then
      invalid_arg (Printf.sprintf "session-cold: %d callers, at most one per node (%d)" callers n);
    let checks = Common.Checks.create () in
    (* Half the throwaway set-ups before the measured one and half after
       the window, as in [Node_durable]. *)
    let setup_times = ref [] in
    let throwaway () =
      let t, dt = setup ~seed ~callers in
      setup_times := dt :: !setup_times;
      shutdown t
    in
    for _ = 1 to setups / 2 do
      throwaway ()
    done;
    let t, dt = setup ~seed ~callers in
    setup_times := dt :: !setup_times;
    let fence_mu = Mutex.create () in
    let fence = Array.make nlocks min_int in
    let fenced k fencing =
      Mutex.lock fence_mu;
      if fencing <= fence.(k) then
        Common.Checks.fail checks
          (Printf.sprintf "fencing: %s grant %d after %d" (lock_name k) fencing fence.(k));
      fence.(k) <- max fencing fence.(k);
      Mutex.unlock fence_mu
    in
    let start = Common.now () +. 0.05 in
    let window_lo = start +. warmup and window_hi = start +. warmup +. seconds in
    let a0 = ref nan in
    let caller c () =
      let samples = ref [] and attempted = ref 0 and failed = ref 0 in
      (* Untraced runs keep only unboxed (due, latency) pairs, so the
         harness's own memory hardly grows with the grant count. *)
      let times = Float.Array.create cap and lats = Float.Array.create cap in
      let count = ref 0 in
      let lags = ref [] and busy_waits = ref [] in
      let free_at = ref 0.0 in
      Array.iteri
        (fun seq (offset, k) ->
        let due = start +. offset in
        Thread.delay (Float.max 0.0 (due -. Common.now ()));
        let t0 = Common.now () in
        let granted = ref nan and rq = ref None and en = ref None in
        let r =
          Netkit.Session_client.with_lock ~lock:(lock_name k) t.clients.(c)
            (fun ~fencing ->
              granted := Common.now ();
              if Mode.traced then begin
                (* One caller per node, one request in flight: the
                   node's latest request and CS-entry steps are this
                   grant's. *)
                rq := Spans.last_request.(c);
                en := Spans.last_enter.(c)
              end;
              fenced k fencing)
        in
        let t1 = Common.now () in
        if due >= window_lo && due < window_hi then begin
          incr attempted;
          let late = (t0 -. due) *. 1000.0 in
          if !free_at > due then busy_waits := late :: !busy_waits
          else lags := late :: !lags;
          match r with
          | Ok () ->
              if !count < cap then begin
                Float.Array.set times !count due;
                Float.Array.set lats !count ((!granted -. due) *. 1000.0);
                incr count
              end;
              if Mode.traced then
                samples :=
                  { caller = c; seq; lock = k; due; t0; granted = !granted; t1; rq = !rq; en = !en }
                  :: !samples
          | Error e ->
              incr failed;
              Common.Checks.fail checks
                ("client error: " ^ Netkit.Session_client.string_of_error e)
        end;
        free_at := t1)
        (schedule ~seed ~duration:(warmup +. seconds) c);
      { samples = !samples; times; lats; count = !count; attempted = !attempted;
        failed = !failed; lags = !lags; busy_waits = !busy_waits }
    in
    let results = Array.make callers None in
    let threads =
      List.init callers (fun c ->
          Thread.create (fun () -> results.(c) <- Some (caller c ())) ())
    in
    Thread.delay (Float.max 0.0 (window_lo -. Common.now ()));
    a0 := Common.allocated_bytes ();
    Thread.delay (Float.max 0.0 (window_hi -. Common.now ()));
    let a1 = Common.allocated_bytes () in
    List.iter Thread.join threads;
    let peak_rss = Common.peak_rss_mb () in
    let results = List.map Option.get (Array.to_list results) in
    let samples = List.concat_map (fun r -> r.samples) results in
    let timed =
      List.concat_map
        (fun r -> List.init r.count (fun i -> (Float.Array.get r.times i, Float.Array.get r.lats i)))
        results
    in
    let snap = Cl.obs_snapshot t.cluster in
    let report = Cl.obs_report t.cluster in
    let tm = Cl.metrics t.cluster in
    let st =
      Array.fold_left
        (fun (r, s) srv ->
          let x = Se.stats srv in
          (r + x.Se.rejected, s + x.Se.stale_grants))
        (0, 0) t.servers
    in
    (* The traced run skips it: its step counters would take in the
       burst's steps. *)
    let closed =
      if Mode.traced then None else Some (capacity ~seed ~checks ~fenced t)
    in
    shutdown t;
    if not Mode.traced then
      for _ = (setups / 2) + 1 to setups - 1 do
        throwaway ()
      done;
    let attempted, failed =
      List.fold_left
        (fun (a, f) r -> (a + r.attempted, f + r.failed))
        (match closed with Some (_, a, f) -> (a, f) | None -> (0, 0))
        results
    in
    let grants =
      List.length
        (List.filter (fun (due, l) -> due +. (l /. 1000.0) < window_hi) timed)
    in
    let p50 = Common.windowed_quantile timed 0.5 in
    let p90 = Common.windowed_quantile timed 0.9 in
    let p99 = Common.windowed_quantile timed 0.99 in
    Printf.printf
      "session-cold: %d callers, %.0f/s offered, %d grants in the %.0f s window, p50 \
       %.3f ms p99 %.3f ms\n"
      callers (rate *. float_of_int callers) grants seconds p50 p99;
    let cs = report.Dmutex_obs.Report.cs_entries in
    let e2e =
      [
        ("setup_s", Common.median !setup_times);
        ("grant_p50_ms", p50);
        ("grant_p90_ms", p90);
        ("grant_p99_ms", p99);
        ("grants_per_s", float_of_int grants /. seconds);
        ("msgs_per_cs", report.Dmutex_obs.Report.messages_per_cs);
        ("alloc_kb_per_cs", (a1 -. !a0) /. 1024.0 /. float_of_int (max 1 grants));
        ("peak_rss_mb", peak_rss);
      ]
      @
      match closed with
      | Some (per_s, _, _) -> [ ("session.capacity_per_s", per_s) ]
      | None -> []
    in
    let layers =
      if not Mode.traced then []
      else begin
        let open Spans in
        let budget = ref [] and req_to_cs = ref [] in
        List.iter
          (fun (s : sample) ->
            let id = Printf.sprintf "c%d/%s/%d" s.caller (lock_name s.lock) s.seq in
            add ~parent:"" ~id "grant" s.due s.granted;
            add ~id "gen.wait" s.due s.t0;
            add ~id "session.acquire" s.t0 s.granted;
            add ~id "session.release" s.granted s.t1;
            match (s.rq, s.en) with
            | Some rq, Some en when rq.s0 >= s.t0 && en.s1 <= s.granted ->
                let d x = x.s1 -. x.s0 in
                add ~id ~parent:"session.acquire" "protocol.request_to_cs" rq.s0 en.s1;
                add ~id ~parent:"protocol.request_to_cs" "protocol.step" rq.s0 rq.s1;
                add ~id ~parent:"protocol.request_to_cs" "wire.decode"
                  (en.s0 -. en.decode) en.s0;
                add ~id ~parent:"protocol.request_to_cs" "protocol.step" en.s0 en.s1;
                req_to_cs := ((en.s1 -. rq.s0) *. 1000.0) :: !req_to_cs;
                budget :=
                  {
                    Budget.grant = s.granted -. s.due;
                    gen = s.t0 -. s.due;
                    session = s.granted -. s.t0 -. (en.s1 -. rq.s0);
                    node = 0.0;
                    step = d rq +. d en;
                    store = 0.0;
                    wire = rq.encode +. en.decode +. en.encode;
                  }
                  :: !budget
            | _ -> ())
          samples;
        let sent = tm.Netkit.Transport.sent in
        let acq = List.map (fun (s : sample) -> (s.granted -. s.t0) *. 1000.0) samples in
        let rel = List.map (fun (s : sample) -> (s.t1 -. s.granted) *. 1000.0) samples in
        let rejected, stale = st in
        let lags = List.concat_map (fun r -> r.lags) results in
        let busy = List.concat_map (fun r -> r.busy_waits) results in
        Spans.live_layers ~snap ~cs ~req_to_cs:!req_to_cs ~sent
          ~flushes:tm.Netkit.Transport.flushes ~dropped:tm.Netkit.Transport.dropped
          ~retries:tm.Netkit.Transport.retries
        @ [
          ("gen.lag_p99_ms", Common.quantile lags 0.99);
          ("gen.pair_wait_ms", if busy = [] then 0.0 else Common.mean busy);
          ("session.acquire_ms", Common.median acq);
          ("session.release_ms", Common.median rel);
          ("session.overhead_ms", Common.median acq -. Common.median !req_to_cs);
          ("session.rejected", float_of_int rejected);
          ("session.stale_grants", float_of_int stale);
        ]
        @ Budget.metrics !budget
      end
    in
    let violations = Common.Checks.found checks in
    {
      Common.correct = violations = [];
      attempted;
      failed;
      metrics = e2e @ layers;
      violations;
    }
end

module Plain =
  Make (Dmutex.Resilient) (Wire.Protocol_codec)
    (struct
      let traced = false
    end)

module Traced =
  Make
    (Spans.Algo (Dmutex.Resilient))
    (Spans.Codec (Wire.Protocol_codec))
    (struct
      let traced = true
    end)

let run ~trace = if trace then Traced.run else Plain.run
