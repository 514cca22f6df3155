(* Workload [node-durable]: open loop in the paper's model. One 3-node
   in-process cluster built directly with [Node_runner.Make]; every
   (node, lock) instance persists through its own [Store] (WAL append +
   fsync before each step's effects) on the checkout's filesystem.
   Poisson arrivals per (node, lock) pair over 4 hot locks, 75% shared
   and 25% exclusive, through [Node.acquire ~mode]; each grant is
   released as soon as the generator sees it. An arrival whose pair is
   still busy waits at the generator. The session layer is bypassed. *)

let n = 3
let locks = Array.init 4 (Printf.sprintf "hot-%d")
let nlocks = Array.length locks

(* Offered load per (node, lock) pair, arrivals per second: 360/s over
   the 12 pairs. *)
let rate = 30.0
let shared_fraction = 0.75
let warmup = 1.0
let setups = 15

type arrival = {
  due : float;  (** Seconds after the schedule starts. *)
  node : int;
  lock : int;
  mode : Dmutex.Types.mode;
}

(* The whole arrival schedule, a function of the seed alone. *)
let schedule ~seed ~duration =
  let all = ref [] in
  for node = 0 to n - 1 do
    for lock = 0 to nlocks - 1 do
      let g = Common.rng ~seed (10 + (node * nlocks) + lock) in
      let rec go t =
        let t = t -. (log (1.0 -. Simkit.Rng.uniform g) /. rate) in
        if t < duration then begin
          let mode =
            if Simkit.Rng.uniform g < shared_fraction then Dmutex.Types.Shared
            else Dmutex.Types.Exclusive
          in
          all := { due = t; node; lock; mode } :: !all;
          go t
        end
      in
      go 0.0
    done
  done;
  let a = Array.of_list !all in
  Array.stable_sort (fun x y -> Float.compare x.due y.due) a;
  a

module type RESILIENT =
  Dmutex.Types.ALGO
    with type state = Dmutex.Protocol.state
     and type message = Dmutex.Protocol.message

(* A grant as the [on_grant] callback saw it. *)
type grant = { g_node : int; g_lock : int; g_at : float; g_step : Spans.step option }

module Make
    (A : RESILIENT)
    (C : Wire.CODEC with type message = A.message)
    (Mode : sig
      val traced : bool
    end) =
struct
  module Node = Netkit.Node_runner.Make (A) (C)

  type cluster = {
    mutable nodes : Node.t array;
    regs : Dmutex_obs.Registry.t array;
    grants : grant Queue.t;
    grants_mu : Mutex.t;
    wake_r : Unix.file_descr;
    wake_w : Unix.file_descr;
    mutable live : bool;  (** Callbacks feed the generator. *)
    witness_mu : Mutex.t;
    holders : (int * Dmutex.Types.mode) list array;
        (** The exclusion witness: current holders per lock. *)
    modes : Dmutex.Types.mode array;  (** Mode of each pair's request. *)
    checks : Common.Checks.t;
  }

  let pair node lock = (node * nlocks) + lock

  let lock_index lock =
    let rec find i = if locks.(i) = lock then i else find (i + 1) in
    find 0

  let on_grant c node ~lock =
    if c.live then begin
      let t = Common.now () in
      let k = lock_index lock in
      Mutex.lock c.witness_mu;
      let mode = c.modes.(pair node k) in
      let others = c.holders.(k) in
      if
        others <> []
        && (mode = Dmutex.Types.Exclusive
           || List.exists (fun (_, m) -> m = Dmutex.Types.Exclusive) others)
      then
        Common.Checks.fail c.checks
          (Printf.sprintf "exclusion: node %d entered %s (%s) while held by [%s]"
             node lock
             (Dmutex.Types.string_of_mode mode)
             (String.concat ","
                (List.map
                   (fun (h, m) ->
                     Printf.sprintf "%d:%s" h (Dmutex.Types.string_of_mode m))
                   others)));
      c.holders.(k) <- (node, mode) :: others;
      Mutex.unlock c.witness_mu;
      let step = if Mode.traced then Spans.finish_step t else None in
      Mutex.lock c.grants_mu;
      Queue.push { g_node = node; g_lock = k; g_at = t; g_step = step } c.grants;
      Mutex.unlock c.grants_mu;
      (* [on_grant] runs under the instance mutex: never release here,
         hand the grant to the generator loop through the self-pipe. *)
      try ignore (Unix.single_write_substring c.wake_w "g" 0 1)
      with Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    end

  (* Start stores and nodes and serve a first grant; returns the cluster
     and the set-up's process CPU seconds (its wall time follows the
     neighbours' CPU load, see README.md). *)
  let setup ~seed ~root ~checks =
    let t0 = Sys.time () in
    let wake_r, wake_w = Unix.pipe ~cloexec:true () in
    Unix.set_nonblock wake_r;
    Unix.set_nonblock wake_w;
    let ports = Common.free_ports n in
    let peers =
      Array.map (fun port -> { Netkit.Transport.host = "127.0.0.1"; port }) ports
    in
    let regs = Array.init n (fun _ -> Dmutex_obs.Registry.create ()) in
    let c =
      {
        nodes = [||];
        regs;
        grants = Queue.create ();
        grants_mu = Mutex.create ();
        wake_r;
        wake_w;
        live = false;
        witness_mu = Mutex.create ();
        holders = Array.make nlocks [];
        modes = Array.make (n * nlocks) Dmutex.Types.Exclusive;
        checks;
      }
    in
    let persist =
      if Mode.traced then Spans.persist Dmutex_store.Protocol_view.capture
      else Dmutex_store.Protocol_view.capture
    in
    c.nodes <-
      Array.init n (fun i ->
          let stores =
            Array.to_list
              (Array.mapi
                 (fun k lock ->
                   Common.mkdir_p (Filename.concat root (Printf.sprintf "node-%d" i));
                   ( lock,
                     Dmutex_store.Store.open_ ~key:lock ~obs:regs.(i)
                       ~dir:
                         (Filename.concat root
                            (Printf.sprintf "node-%d/lock-%d" i k))
                       ~n () ))
                 locks)
          in
          Node.create
            ~on_grant:(fun ~lock -> on_grant c i ~lock)
            ~locks:(Array.to_list locks)
            ~store:(fun ~lock -> List.assoc_opt lock stores)
            ~persist ~obs:regs.(i) ~seed:(seed + i) (Common.live_config n)
            ~me:i ~peers ());
    (match Node.with_lock ~timeout:10.0 ~lock:locks.(0) c.nodes.(1) ignore with
    | Some () -> ()
    | None -> failwith "node-durable: no first grant within 10 s");
    (c, Sys.time () -. t0)

  let shutdown c =
    Array.iter Node.shutdown c.nodes;
    Unix.close c.wake_r;
    Unix.close c.wake_w

  let run ~seed ~seconds ~dir =
    let checks = Common.Checks.create () in
    let root k = Filename.concat dir (Printf.sprintf "state-%d-%d" (Unix.getpid ()) k) in
    (* Set up several times and report the median. Half the throwaway
       clusters come before the measured one and half after its window:
       a set-up's CPU time drifts with the neighbours' load for seconds
       at a time, so the median spans the run. The traced run skips the
       second half: its set-up time is not reported. *)
    let setup_times = ref [] in
    let throwaway k =
      let c, dt = setup ~seed ~root:(root k) ~checks in
      setup_times := dt :: !setup_times;
      shutdown c;
      Common.rm_rf (root k)
    in
    for k = 1 to setups / 2 do
      throwaway k
    done;
    let c, dt = setup ~seed ~root:(root 0) ~checks in
    setup_times := dt :: !setup_times;
    let sched = schedule ~seed ~duration:(warmup +. seconds) in
    let npairs = n * nlocks in
    let pending : arrival option array = Array.make npairs None in
    let issued_at = Array.make npairs 0.0 in
    let issued_end = Array.make npairs 0.0 in
    let acq_step : Spans.step option array = Array.make npairs None in
    let backlog = Array.init npairs (fun _ -> Queue.create ()) in
    let seqs = Array.make npairs 0 in
    let fence = Array.make nlocks min_int in
    let latencies = ref [] and lags = ref [] and pair_waits = ref [] in
    let acquire_us = ref [] and release_us = ref [] in
    let budget = ref [] and req_to_cs = ref [] and store_ms = ref [] in
    let in_window = ref 0 in
    let attempted = ref 0 and granted = ref 0 in
    let start = Common.now () +. 0.05 in
    let measured a = a.due >= warmup && a.due < warmup +. seconds in
    let window_lo = start +. warmup and window_hi = start +. warmup +. seconds in
    let a0 = ref nan and a1 = ref nan in
    c.live <- true;
    let issue ~backlogged a =
      let p = pair a.node a.lock in
      pending.(p) <- Some a;
      Mutex.lock c.witness_mu;
      c.modes.(p) <- a.mode;
      Mutex.unlock c.witness_mu;
      let t0 = Common.now () in
      Node.acquire ~lock:locks.(a.lock) ~mode:a.mode c.nodes.(a.node);
      let t1 = Common.now () in
      issued_at.(p) <- t0;
      issued_end.(p) <- t1;
      if Mode.traced then acq_step.(p) <- Spans.finish_step t1;
      if measured a then begin
        incr attempted;
        acquire_us := ((t1 -. t0) *. 1e6) :: !acquire_us;
        let late = (t0 -. start -. a.due) *. 1000.0 in
        if backlogged then pair_waits := late :: !pair_waits
        else lags := late :: !lags
      end
    in
    let on_granted g =
      let p = pair g.g_node g.g_lock in
      match pending.(p) with
      | None ->
          Common.Checks.fail checks
            (Printf.sprintf "grant without request: node %d %s" g.g_node
               locks.(g.g_lock))
      | Some a ->
          let node = c.nodes.(g.g_node) and lock = locks.(g.g_lock) in
          (* Still inside the CS: the fencing token of this grant. *)
          (match
             Dmutex_store.Protocol_view.fencing_of_state (Node.state ~lock node)
           with
          | Some f ->
              if a.mode = Dmutex.Types.Exclusive && f <= fence.(g.g_lock) then
                Common.Checks.fail checks
                  (Printf.sprintf "fencing: %s exclusive grant %d after %d" lock
                     f fence.(g.g_lock));
              fence.(g.g_lock) <- max f fence.(g.g_lock)
          | None ->
              if a.mode = Dmutex.Types.Exclusive then
                Common.Checks.fail checks
                  (Printf.sprintf "fencing: %s exclusive grant without a token"
                     lock));
          Mutex.lock c.witness_mu;
          c.holders.(g.g_lock) <-
            List.filter (fun (h, _) -> h <> g.g_node) c.holders.(g.g_lock);
          Mutex.unlock c.witness_mu;
          let r0 = Common.now () in
          Node.release ~lock node;
          let r1 = Common.now () in
          if Mode.traced then ignore (Spans.finish_step r1);
          incr granted;
          if g.g_at >= window_lo && g.g_at < window_hi then incr in_window;
          if measured a then begin
            let due = start +. a.due in
            latencies := (due, (g.g_at -. due) *. 1000.0) :: !latencies;
            release_us := ((r1 -. r0) *. 1e6) :: !release_us;
            if Mode.traced then begin
              let id = Printf.sprintf "n%d/%s/%d" a.node lock seqs.(p) in
              let acq0 = issued_at.(p) in
              Spans.add ~parent:"" ~id "grant" due g.g_at;
              Spans.add ~id "gen.wait" due acq0;
              Spans.add ~id "node.release" r0 r1;
              match (acq_step.(p), g.g_step) with
              | Some rq, Some en ->
                  let d s = s.Spans.s1 -. s.Spans.s0 in
                  Spans.add ~id "node.acquire" acq0 (rq.Spans.s1 +. rq.Spans.store);
                  Spans.add ~id ~parent:"node.acquire" "protocol.step" rq.Spans.s0 rq.Spans.s1;
                  Spans.add ~id ~parent:"node.acquire" "store.record" rq.Spans.s1
                    (rq.Spans.s1 +. rq.Spans.store);
                  Spans.add ~id "protocol.request_to_cs" rq.Spans.s0 en.Spans.s1;
                  Spans.add ~id ~parent:"protocol.request_to_cs" "wire.decode"
                    (en.Spans.s0 -. en.Spans.decode) en.Spans.s0;
                  Spans.add ~id ~parent:"protocol.request_to_cs" "protocol.step"
                    en.Spans.s0 en.Spans.s1;
                  Spans.add ~id "store.record" en.Spans.s1 (en.Spans.s1 +. en.Spans.store);
                  req_to_cs := ((en.Spans.s1 -. rq.Spans.s0) *. 1000.0) :: !req_to_cs;
                  store_ms := (rq.Spans.store *. 1000.0) :: (en.Spans.store *. 1000.0) :: !store_ms;
                  let acq1 = issued_end.(p) in
                  let wire = rq.Spans.encode +. en.Spans.decode +. en.Spans.encode in
                  (* node_runner's own share: the rest of the acquire
                     call, and the grant step's hand-off to [on_grant]. *)
                  let node_rt =
                    acq1 -. acq0 -. d rq -. rq.Spans.store -. rq.Spans.encode
                    +. (g.g_at -. en.Spans.s1 -. en.Spans.store -. en.Spans.encode)
                  in
                  budget :=
                    {
                      Budget.grant = g.g_at -. due;
                      gen = acq0 -. due;
                      session = 0.0;
                      node = node_rt;
                      step = d rq +. d en;
                      store = rq.Spans.store +. en.Spans.store;
                      wire;
                    }
                    :: !budget
              | _ -> ()
            end
          end;
          seqs.(p) <- seqs.(p) + 1;
          pending.(p) <- None;
          if not (Queue.is_empty backlog.(p)) then
            issue ~backlogged:true (Queue.pop backlog.(p))
    in
    let next = ref 0 in
    let total = Array.length sched in
    let drain_deadline = start +. warmup +. seconds +. 5.0 in
    let buf = Bytes.create 256 in
    let busy () = Array.exists Option.is_some pending in
    while
      (!next < total || busy ()) && Common.now () < drain_deadline
    do
      let now = Common.now () in
      if Float.is_nan !a0 && now >= window_lo then a0 := Common.allocated_bytes ();
      if Float.is_nan !a1 && now >= window_hi then a1 := Common.allocated_bytes ();
      while !next < total && start +. sched.(!next).due <= Common.now () do
        let a = sched.(!next) in
        incr next;
        let p = pair a.node a.lock in
        if Option.is_some pending.(p) then Queue.push a backlog.(p)
        else issue ~backlogged:false a
      done;
      let wait =
        if !next < total then start +. sched.(!next).due -. Common.now ()
        else 0.05
      in
      (match Unix.select [ c.wake_r ] [] [] (Float.max 0.0 (Float.min wait 0.05)) with
      | [], _, _ -> ()
      | _ -> ( try ignore (Unix.read c.wake_r buf 0 256) with Unix.Unix_error _ -> ()));
      let rec drain () =
        Mutex.lock c.grants_mu;
        let g = Queue.take_opt c.grants in
        Mutex.unlock c.grants_mu;
        match g with
        | Some g ->
            on_granted g;
            drain ()
        | None -> ()
      in
      drain ()
    done;
    if Float.is_nan !a1 then a1 := Common.allocated_bytes ();
    c.live <- false;
    let undelivered =
      Array.fold_left
        (fun acc -> function Some a when measured a -> acc + 1 | _ -> acc)
        0 pending
      + Array.fold_left
          (fun acc q -> Queue.fold (fun acc a -> if measured a then acc + 1 else acc) acc q)
          0 backlog
    in
    if undelivered > 0 then
      Common.Checks.fail checks
        (Printf.sprintf "%d measured arrivals not granted by the end of the drain"
           undelivered);
    let snap =
      Dmutex_obs.Registry.merge
        (Array.to_list (Array.map Dmutex_obs.Registry.snapshot c.regs))
    in
    let report = Dmutex_obs.Report.derive snap in
    let tm =
      Array.fold_left
        (fun (s, f, d, r) node ->
          let m = Node.metrics node in
          ( s + m.Netkit.Transport.sent,
            f + m.Netkit.Transport.flushes,
            d + m.Netkit.Transport.dropped,
            r + m.Netkit.Transport.retries ))
        (0, 0, 0, 0) c.nodes
    in
    shutdown c;
    Common.rm_rf (root 0);
    let peak_rss = Common.peak_rss_mb () in
    if not Mode.traced then
      for k = (setups / 2) + 1 to setups - 1 do
        throwaway k
      done;
    let cs = report.Dmutex_obs.Report.cs_entries in
    let grants_in_window = !in_window in
    let p50 = Common.windowed_quantile !latencies 0.5 in
    let p90 = Common.windowed_quantile !latencies 0.9 in
    let p99 = Common.windowed_quantile !latencies 0.99 in
    Printf.printf
      "node-durable: %d arrivals offered (%.0f/s), %d granted, %d in the %.0f s \
       window, p50 %.3f ms p99 %.3f ms\n"
      total (rate *. float_of_int (n * nlocks)) !granted grants_in_window seconds
      p50 p99;
    let e2e =
      [
        ("setup_s", Common.median !setup_times);
        ("grant_p50_ms", p50);
        ("grant_p90_ms", p90);
        ("grant_p99_ms", p99);
        ("grants_per_s", float_of_int grants_in_window /. seconds);
        ("msgs_per_cs", report.Dmutex_obs.Report.messages_per_cs);
        ( "alloc_kb_per_cs",
          (!a1 -. !a0) /. 1024.0 /. float_of_int (max 1 grants_in_window) );
        ("peak_rss_mb", peak_rss);
      ]
    in
    let layers =
      if not Mode.traced then []
      else
        let sent, flushes, dropped, retries = tm in
        Spans.live_layers ~snap ~cs ~req_to_cs:!req_to_cs ~sent ~flushes ~dropped
          ~retries
        @ [
          ("node.acquire_us", Common.mean !acquire_us);
          ("node.release_us", Common.mean !release_us);
          ( "store.fsync_ms_mean",
            1000.0 *. Common.histo_mean snap Dmutex_obs.Names.store_fsync_seconds );
          ("store.fsync_ms_p99", Common.quantile !store_ms 0.99);
          ( "store.appends_per_cs",
            Common.ratio (Common.counter_sum snap Dmutex_obs.Names.store_wal_appends_total) cs );
          ("gen.lag_p99_ms", Common.quantile !lags 0.99);
          ("gen.pair_wait_ms", if !pair_waits = [] then 0.0 else Common.mean !pair_waits);
        ]
        @ Budget.metrics !budget
    in
    let violations = Common.Checks.found checks in
    {
      Common.correct = violations = [];
      attempted = !attempted;
      failed = undelivered;
      metrics = e2e @ layers;
      violations;
    }
end

module Plain = Make (Dmutex.Resilient) (Wire.Protocol_codec) (struct
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
