(* Workload [lab-sim]: the comparison lab alone. Closed-loop saturated
   runs (every node re-requests on CS exit) of the paper's Basic
   protocol and the four broadcast baselines at N=250 with 2N requests
   each, in one domain. No sockets, threads or disk: the time goes to
   lib/simkit, lib/baselines and the pure protocol step.

   Its end-to-end figures are the paper's: messages per CS, and the
   delay per CS and throughput in simulated time, from Basic on the
   lab's "lan-uniform" network (delays uniform on [0.05, 0.15), mean
   T_msg), where the seed shapes the run. The sweep's CPU time is a
   per-layer figure: on a shared host it swings by a quarter between
   runs minutes apart, more than any bound could absorb. CPU times are
   process CPU seconds ([Sys.time]). *)

let n = 250
let requests = 2 * n

(* Set-up rounds before each sweep, on the compacted heap; setup_s is
   their median. They are spread over the run because a round's CPU
   time drifts with the neighbours' load for seconds at a time. *)
let setups_per_sweep = 3

(* Step time of every [handle] call, per algorithm; only the traced run
   instantiates the simulator with this wrapper. The lab runs in one
   domain, so the tally needs no lock (unlike [Spans.bump]). *)
module Step_timer (A : Dmutex.Types.ALGO) (T : sig
  val tally : Spans.tally
end) : Dmutex.Types.ALGO = struct
  include A

  let handle cfg ~now st input =
    let t0 = Common.now () in
    let r = A.handle cfg ~now st input in
    let dt = Common.now () -. t0 in
    T.tally.count <- T.tally.count + 1;
    T.tally.secs <- T.tally.secs +. dt;
    r
end

type algo = {
  key : string;
  algo : (module Dmutex.Types.ALGO);
  config : Dmutex.Types.Config.t;
  steps : Spans.tally;
}

(* The scale table's configurations, on its constant-T_msg network. *)
let algos ?(n = n) () =
  let mk key algo config = { key; algo; config; steps = Spans.tally () } in
  [
    mk "basic" (module Dmutex.Basic : Dmutex.Types.ALGO)
      (Dmutex.Basic.config ~n ());
    mk "suzuki_kasami" (module Baselines.Suzuki_kasami)
      (Dmutex.Types.Config.default ~n);
    mk "ricart_agrawala" (module Baselines.Ricart_agrawala)
      (Dmutex.Types.Config.default ~n);
    mk "singhal" (module Baselines.Singhal) (Dmutex.Types.Config.default ~n);
    mk "lamport" (module Baselines.Lamport) (Dmutex.Types.Config.default ~n);
  ]

(* One algorithm's run within a sweep. *)
type run = {
  outcome : Dmutex.Sim_runner.outcome;
  cpu : float;  (** Saturating it with 2N requests, CPU s. *)
  alloc : float;  (** Bytes allocated by build + run. *)
  delays : float list;  (** Per grant: request → CS exit, simulated s. *)
  obs : Dmutex_obs.Registry.snapshot option;
}

let run_one ?latency ~trace ~seed a =
  let (module A0) = a.algo in
  let (module A : Dmutex.Types.ALGO) =
    if trace then
      (module Step_timer (A0) (struct
        let tally = a.steps
      end))
    else (module A0)
  in
  let module R = Dmutex.Sim_runner.Make (A) in
  let reg = if a.key = "basic" then Some (Dmutex_obs.Registry.create ()) else None in
  let delays = ref [] in
  let a0 = Common.allocated_bytes () in
  let sim = R.create ~seed ?latency ?obs:reg a.config in
  let t1 = Sys.time () in
  R.on_grant sim (fun ~node:_ ~delay -> delays := delay :: !delays);
  let w1 = Common.now () in
  let outcome = R.saturate ~requests:(2 * a.config.Dmutex.Types.Config.n) sim in
  let t2 = Sys.time () in
  (* One span per simulation run: per-step spans would be millions. *)
  if trace then
    Spans.add ~parent:"" ~id:(Printf.sprintf "%s/%d" a.key seed) ("sim." ^ a.key) w1
      (Common.now ());
  {
    outcome;
    cpu = t2 -. t1;
    alloc = Common.allocated_bytes () -. a0;
    delays = !delays;
    obs = Option.map Dmutex_obs.Registry.snapshot reg;
  }

(* Each sweep of the run gets its own simulator seed, derived from the
   workload seed alone. *)
let sweep_seed ~seed rep = Simkit.Rng.int (Common.rng ~seed (1000 + rep)) 1_000_000_000

(* One set-up round: build every algorithm's simulation arena; CPU s. *)
let setup_round ~seed algos =
  List.fold_left
    (fun acc a ->
      let (module A) = a.algo in
      let module R = Dmutex.Sim_runner.Make (A) in
      let t0 = Sys.time () in
      ignore (Sys.opaque_identity (R.create ~seed a.config));
      acc +. (Sys.time () -. t0))
    0.0 algos

let sweep ~trace ~seed ~rep algos =
  let s = sweep_seed ~seed rep in
  List.map (fun a -> (a, run_one ~trace ~seed:s a)) algos

(* Message counts per algorithm of one sweep: the determinism pin. *)
let message_counts ?n ~seed () =
  List.map
    (fun (a, r) -> (a.key, r.outcome.Dmutex.Sim_runner.messages))
    (sweep ~trace:false ~seed ~rep:0 (algos ?n ()))

(* The Eq. 4 acceptance band exactly as the bench gate applies it to
   the lab's Basic row: feed the cell through [Dmutex_obs.Gate]. *)
let eq4_band_failures msgs =
  let open Dmutex_obs.Json in
  let cell = Obj [ ("n", Num (float_of_int n)); ("messages_per_cs", Num msgs) ] in
  let row = Obj [ ("algorithm", Str "this-paper (basic)"); ("cells", List [ cell ]) ] in
  let current = Obj [ ("derived", Obj [ ("scale", Obj [ ("rows", List [ row ]) ]) ]) ] in
  (Dmutex_obs.Gate.run ~allow_missing:true ~baseline:(Obj []) ~current ())
    .Dmutex_obs.Gate.failures

let lan_uniform = Simkit.Network.Uniform (0.05, 0.15)

let run ~trace ~seed ~seconds =
  let algos = algos () in
  let basic = List.hd algos in
  let checks = Common.Checks.create () in
  let setup_times = ref [] in
  let start = Common.now () in
  let sweeps = ref [] in
  let rep = ref 0 in
  let peak_rss = ref nan in
  (* At least three sweeps: the first is warm-up (heap growth), the
     seed-determined figures come from the first two, and the peak RSS
     is read after the third, so it does not grow with the number of
     sweeps a fast host fits in. *)
  while !rep < 3 || Common.now () -. start < seconds do
    for _ = 1 to setups_per_sweep do
      setup_times := setup_round ~seed:(sweep_seed ~seed !rep) algos :: !setup_times
    done;
    let sw = sweep ~trace ~seed ~rep:!rep algos in
    Printf.printf "lab-sim sweep %d (CPU s): %s\n" !rep
      (String.concat " "
         (List.map (fun (a, r) -> Printf.sprintf "%s=%.3f" a.key r.cpu) sw));
    sweeps := sw :: !sweeps;
    incr rep;
    if !rep = 3 then peak_rss := Common.peak_rss_mb ();
    (* Untimed: every sweep starts from a compacted heap. *)
    Gc.compact ()
  done;
  let sweeps = List.rev !sweeps in
  let pinned = List.filteri (fun i _ -> i < 2) sweeps in
  let paper =
    List.mapi
      (fun rep _ -> run_one ~latency:lan_uniform ~trace:false ~seed:(sweep_seed ~seed rep) basic)
      pinned
  in
  let attempted = ref 0 and failed = ref 0 in
  (* A closed loop stopped at its target leaves exactly one re-request
     in flight per node; anything beyond that was never served. *)
  let unserved o = max 0 (o.Dmutex.Sim_runner.unserved - n) in
  let check key r =
    let o = r.outcome in
    attempted := !attempted + requests;
    failed := !failed + unserved o;
    if o.Dmutex.Sim_runner.safety_violations > 0 then
      Common.Checks.fail checks
        (Printf.sprintf "%s: %d safety violations" key
           o.Dmutex.Sim_runner.safety_violations);
    if unserved o > 0 then
      Common.Checks.fail checks
        (Printf.sprintf "%s: %d unserved requests beyond the %d in flight" key
           (unserved o) n)
  in
  List.iter (List.iter (fun (a, r) -> check a.key r)) sweeps;
  List.iter (check "basic (lan-uniform)") paper;
  let msgs =
    List.map (fun sw -> (List.assq basic sw).outcome.Dmutex.Sim_runner.messages_per_cs) pinned
  in
  List.iter
    (fun m ->
      List.iter
        (fun f -> Common.Checks.fail checks ("basic Eq. 4 band: " ^ f))
        (eq4_band_failures m))
    msgs;
  let delays_ms = List.concat_map (fun r -> List.map (fun d -> d *. 1000.0) r.delays) paper in
  let sum f = List.fold_left (fun acc r -> acc +. f r) 0.0 in
  let measured = List.tl sweeps in
  let runs = List.concat_map (List.map snd) measured in
  let cs_of r = float_of_int r.outcome.Dmutex.Sim_runner.completed in
  let e2e =
    [
      ("setup_s", Common.median !setup_times);
      ("grant_p50_ms", Common.quantile delays_ms 0.5);
      ("grant_p90_ms", Common.tail_quantile delays_ms 0.9);
      ("grant_p99_ms", Common.tail_quantile delays_ms 0.99);
      ( "grants_per_s",
        sum cs_of paper /. sum (fun r -> r.outcome.Dmutex.Sim_runner.sim_time) paper );
      ("msgs_per_cs", Common.mean msgs);
      ("alloc_kb_per_cs", sum (fun r -> r.alloc) runs /. 1024.0 /. sum cs_of runs);
      ("peak_rss_mb", !peak_rss);
      (* Not a declared metric: the base of lab-sim's trace.overhead. *)
      ("cpu_cs_per_s", sum cs_of runs /. sum (fun r -> r.cpu) runs);
    ]
  in
  let layers =
    if not trace then []
    else
      let per_algo =
        List.concat_map
          (fun a ->
            let runs = List.map (List.assq a) measured in
            let med f = Common.median (List.map f runs) in
            [
              (Printf.sprintf "sim.%s.cs_per_s" a.key, med (fun r -> cs_of r /. r.cpu));
              (Printf.sprintf "sim.%s.alloc_mb" a.key, med (fun r -> r.alloc /. 1048576.0));
              ( Printf.sprintf "sim.%s.step_us" a.key,
                a.steps.Spans.secs /. float_of_int (max 1 a.steps.Spans.count) *. 1e6 );
            ])
          algos
      in
      let step_secs = List.fold_left (fun acc a -> acc +. a.steps.Spans.secs) 0.0 algos in
      let step_count = List.fold_left (fun acc a -> acc + a.steps.Spans.count) 0 algos in
      let all = List.concat_map (List.map snd) sweeps in
      let snap = Option.get (List.assq basic (List.hd sweeps)).obs in
      (* Simulated-time figures of the Basic row, in simulated ms. *)
      per_algo
      @ [
          ("simkit.self_share", 1.0 -. (step_secs /. sum (fun r -> r.cpu) all));
          ("protocol.step_us", step_secs /. float_of_int (max 1 step_count) *. 1e6);
          ("protocol.steps_per_cs", float_of_int step_count /. sum cs_of all);
          ( "protocol.collect_ms",
            1000.0
            *. Common.histo_mean snap ~labels:[ ("phase", "collection") ]
                 Dmutex_obs.Names.phase_seconds );
          ( "protocol.request_to_cs_ms",
            1000.0 *. Common.histo_mean snap Dmutex_obs.Names.sync_delay_seconds );
          ("qlist.len_mean", Common.histo_mean snap Dmutex_obs.Names.queue_length);
          ("qlist.read_batch_mean", Common.histo_mean snap Dmutex_obs.Names.read_batch_size);
        ]
  in
  Printf.printf "lab-sim: %d sweeps of %d algorithms at N=%d (%d requests each) in %.1f s\n"
    (List.length sweeps) (List.length algos) n requests (Common.now () -. start);
  let violations = Common.Checks.found checks in
  {
    Common.correct = violations = [];
    attempted = !attempted;
    failed = !failed;
    metrics = e2e @ layers;
    violations;
  }
