(* Each baseline: safety, liveness, and the message counts the
   literature attributes to it. *)

open Dmutex

let check_correct name (o : Sim_runner.outcome) =
  Alcotest.(check int) (name ^ ": no violations") 0 o.safety_violations;
  Alcotest.(check bool) (name ^ ": liveness") true (o.unserved <= o.n)

let n = 10
let cfg = Types.Config.default ~n

let test_central () =
  let module R = Sim_runner.Make (Baselines.Central_server) in
  let low = R.run_poisson ~seed:1 ~requests:5_000 ~rate:0.05 cfg in
  check_correct "central" low;
  Alcotest.(check int) "all served" 0 low.unserved;
  (* 3 messages unless the requester is the server: 3 * (N-1)/N. *)
  Alcotest.(check bool)
    (Printf.sprintf "~2.7 messages (%.2f)" low.messages_per_cs)
    true
    (abs_float (low.messages_per_cs -. 2.7) < 0.1);
  let sat = R.run_saturated ~seed:1 ~requests:10_000 cfg in
  check_correct "central sat" sat

let test_suzuki_kasami () =
  let module R = Sim_runner.Make (Baselines.Suzuki_kasami) in
  let low = R.run_poisson ~seed:2 ~requests:5_000 ~rate:0.05 cfg in
  check_correct "suzuki" low;
  Alcotest.(check int) "all served" 0 low.unserved;
  (* N messages (N-1 broadcast + token) unless holder: ~ (N)(1-1/N). *)
  Alcotest.(check bool)
    (Printf.sprintf "~9 messages low (%.2f)" low.messages_per_cs)
    true
    (abs_float (low.messages_per_cs -. 9.0) < 0.5);
  let sat = R.run_saturated ~seed:2 ~requests:10_000 cfg in
  check_correct "suzuki sat" sat;
  Alcotest.(check bool)
    (Printf.sprintf "~N messages at saturation (%.2f)" sat.messages_per_cs)
    true
    (sat.messages_per_cs > 9.0 && sat.messages_per_cs < 10.5)

let test_ricart_agrawala () =
  let module R = Sim_runner.Make (Baselines.Ricart_agrawala) in
  let low = R.run_poisson ~seed:3 ~requests:5_000 ~rate:0.05 cfg in
  check_correct "ricart" low;
  Alcotest.(check (float 0.01)) "exactly 2(N-1) low" 18.0 low.messages_per_cs;
  let sat = R.run_saturated ~seed:3 ~requests:10_000 cfg in
  check_correct "ricart sat" sat;
  Alcotest.(check bool) "2(N-1) at saturation" true
    (abs_float (sat.messages_per_cs -. 18.0) < 0.1)

let test_raymond () =
  let module R = Sim_runner.Make (Baselines.Raymond) in
  let low = R.run_poisson ~seed:4 ~requests:5_000 ~rate:0.05 cfg in
  check_correct "raymond" low;
  Alcotest.(check int) "all served" 0 low.unserved;
  (* O(log N) at low load for the binary tree. *)
  Alcotest.(check bool)
    (Printf.sprintf "low load O(log N) (%.2f)" low.messages_per_cs)
    true
    (low.messages_per_cs < 8.0);
  let sat = R.run_saturated ~seed:4 ~requests:10_000 cfg in
  check_correct "raymond sat" sat;
  (* The paper quotes "approximately 4 at high loads". *)
  Alcotest.(check bool)
    (Printf.sprintf "~4 at saturation (%.2f)" sat.messages_per_cs)
    true
    (sat.messages_per_cs < 4.5)

let test_singhal () =
  let module R = Sim_runner.Make (Baselines.Singhal) in
  let low = R.run_poisson ~seed:5 ~requests:5_000 ~rate:0.05 cfg in
  check_correct "singhal" low;
  Alcotest.(check int) "all served" 0 low.unserved;
  (* Dynamic: cheaper than Ricart-Agrawala at low load... *)
  Alcotest.(check bool)
    (Printf.sprintf "below RA at low load (%.2f)" low.messages_per_cs)
    true
    (low.messages_per_cs < 14.0);
  let sat = R.run_saturated ~seed:5 ~requests:10_000 cfg in
  check_correct "singhal sat" sat;
  (* ...and converges to ~2(N-1) at saturation. *)
  Alcotest.(check bool)
    (Printf.sprintf "~2(N-1) at saturation (%.2f)" sat.messages_per_cs)
    true
    (abs_float (sat.messages_per_cs -. 18.0) < 1.0)

let test_maekawa () =
  let module R = Sim_runner.Make (Baselines.Maekawa) in
  let low = R.run_poisson ~seed:6 ~requests:5_000 ~rate:0.05 cfg in
  check_correct "maekawa" low;
  Alcotest.(check int) "all served" 0 low.unserved;
  (* 3-5 sqrt(N) band: sqrt(10) ~ 3.16 so [9.5, 17]. *)
  Alcotest.(check bool)
    (Printf.sprintf "within the 3-5 sqrtN band (%.2f)" low.messages_per_cs)
    true
    (low.messages_per_cs > 9.0 && low.messages_per_cs < 17.5);
  let sat = R.run_saturated ~seed:6 ~requests:10_000 cfg in
  check_correct "maekawa sat" sat;
  Alcotest.(check bool)
    (Printf.sprintf "saturation in band (%.2f)" sat.messages_per_cs)
    true
    (sat.messages_per_cs > 9.0 && sat.messages_per_cs < 17.5)

let test_lamport () =
  let module R = Sim_runner.Make (Baselines.Lamport) in
  let low = R.run_poisson ~seed:7 ~requests:5_000 ~rate:0.05 cfg in
  check_correct "lamport" low;
  Alcotest.(check int) "all served" 0 low.unserved;
  (* Exactly 3(N-1): request broadcast + N-1 acks + release broadcast. *)
  Alcotest.(check (float 0.05)) "3(N-1) at low load" 27.0 low.messages_per_cs;
  let sat = R.run_saturated ~seed:7 ~requests:10_000 cfg in
  check_correct "lamport sat" sat;
  Alcotest.(check bool)
    (Printf.sprintf "~3(N-1) at saturation (%.2f)" sat.messages_per_cs)
    true
    (abs_float (sat.messages_per_cs -. 27.0) < 0.5)

let test_maekawa_quorums () =
  (* Pairwise intersection for assorted n, including non-squares. *)
  List.iter
    (fun n ->
      let qs = Baselines.Maekawa.quorums n in
      Array.iteri
        (fun i qi ->
          Alcotest.(check bool)
            (Printf.sprintf "n=%d: %d in own quorum" n i)
            true (List.mem i qi);
          Array.iteri
            (fun j qj ->
              let inter = List.exists (fun x -> List.mem x qj) qi in
              if not inter then
                Alcotest.fail
                  (Printf.sprintf "n=%d: quorums %d and %d disjoint" n i j))
            qs)
        qs)
    [ 2; 3; 4; 5; 7; 9; 10; 13; 16; 17; 25 ]

let test_tree_quorum () =
  let module R = Sim_runner.Make (Baselines.Tree_quorum) in
  let low = R.run_poisson ~seed:8 ~requests:5_000 ~rate:0.05 cfg in
  check_correct "tree-quorum" low;
  Alcotest.(check int) "all served" 0 low.unserved;
  (* Path quorums are O(log N): cheaper than Maekawa's 2*sqrt(N)-1
     grid at the same N. *)
  let module RM = Sim_runner.Make (Baselines.Maekawa) in
  let mk = RM.run_poisson ~seed:8 ~requests:5_000 ~rate:0.05 cfg in
  Alcotest.(check bool)
    (Printf.sprintf "cheaper than maekawa at low load (%.2f vs %.2f)"
       low.messages_per_cs mk.messages_per_cs)
    true
    (low.messages_per_cs < mk.messages_per_cs);
  let sat = R.run_saturated ~seed:8 ~requests:10_000 cfg in
  check_correct "tree-quorum sat" sat

let test_tree_quorum_rule () =
  (* The TOCS'91 substitution rule, spot checks on n=7. *)
  let q ?failed n = Baselines.Tree_quorum.quorum ?failed n in
  Alcotest.(check (option (list int))) "no failures: a root path"
    (Some [ 0; 1; 3 ]) (q 7);
  Alcotest.(check (option (list int))) "root failed: both subtree paths"
    (Some [ 1; 3; 2; 5 ])
    (q ~failed:(fun i -> i = 0) 7);
  Alcotest.(check (option (list int))) "interior failure substituted"
    (Some [ 0; 3; 4 ])
    (q ~failed:(fun i -> i = 1) 7);
  (* All interior nodes dead: the rule still assembles the leaf
     front. *)
  Alcotest.(check (option (list int))) "survives losing every interior node"
    (Some [ 3; 4; 5; 6 ])
    (q ~failed:(fun i -> i <= 2) 7);
  (* Root plus one whole subtree dead: no quorum can be formed. *)
  Alcotest.(check bool) "fails when a full subtree is gone" true
    (q ~failed:(fun i -> i = 0 || i = 3 || i = 4) 7 = None)

let prop_tree_quorum_intersection =
  (* The paper's theorem: any two constructible quorums intersect,
     even under different failure views. *)
  QCheck.Test.make ~name:"tree quorums intersect under failures" ~count:500
    QCheck.(triple (int_range 1 31) (small_list (int_range 0 30))
              (small_list (int_range 0 30)))
    (fun (n, dead_a, dead_b) ->
      let failed dead i = List.mem i dead in
      match
        ( Baselines.Tree_quorum.quorum ~failed:(failed dead_a) n,
          Baselines.Tree_quorum.quorum ~failed:(failed dead_b) n )
      with
      | Some qa, Some qb -> List.exists (fun x -> List.mem x qb) qa
      | _ -> true (* no quorum constructible: vacuous *))

let test_paper_ordering_at_saturation () =
  (* The paper's headline comparison: new algorithm < Raymond <
     Suzuki-Kasami < Ricart-Agrawala at high load. *)
  let module RB = Sim_runner.Make (Basic) in
  let module RRay = Sim_runner.Make (Baselines.Raymond) in
  let module RSK = Sim_runner.Make (Baselines.Suzuki_kasami) in
  let module RRA = Sim_runner.Make (Baselines.Ricart_agrawala) in
  let b = (RB.run_saturated ~seed:7 ~requests:10_000 (Basic.config ~n ())).messages_per_cs in
  let ray = (RRay.run_saturated ~seed:7 ~requests:10_000 cfg).messages_per_cs in
  let sk = (RSK.run_saturated ~seed:7 ~requests:10_000 cfg).messages_per_cs in
  let ra = (RRA.run_saturated ~seed:7 ~requests:10_000 cfg).messages_per_cs in
  Alcotest.(check bool)
    (Printf.sprintf "%.2f < %.2f < %.2f < %.2f" b ray sk ra)
    true
    (b < ray && ray < sk && sk < ra)

let test_fig6_crossover () =
  (* Figure 6: Singhal's dynamic algorithm wins only at very low
     loads; the paper's algorithm wins everywhere else. *)
  let module RB = Sim_runner.Make (Basic) in
  let module RS = Sim_runner.Make (Baselines.Singhal) in
  let basic_cfg = Basic.config ~n () in
  let at rate =
    ( (RB.run_poisson ~seed:8 ~requests:5_000 ~rate basic_cfg).messages_per_cs,
      (RS.run_poisson ~seed:8 ~requests:5_000 ~rate cfg).messages_per_cs )
  in
  let b_hi, s_hi = at 1.0 in
  Alcotest.(check bool)
    (Printf.sprintf "new wins at high load (%.2f vs %.2f)" b_hi s_hi)
    true (b_hi < s_hi)

(* Cross-version outcome pin. These figures were recorded from the
   array-based state representation the broadcast baselines had before
   they moved to the persistent vectors of [Baselines.Pvec]; a
   representation change must not move a single message, grant or
   simulated instant. Each row: algorithm, run kind, N, messages,
   messages by kind, completed CS, simulated time, mean and max delay.
   Saturated runs and Poisson runs at an aggregate 2 requests/s, 20N
   requests, seed 11, on the default constant-delay network. *)
let golden =
  [
    ("suzuki-kasami", "saturated", 10, 2071, [ ("PRIVILEGE", 199); ("REQUEST", 1872) ], 200, 39.800000000000296, 1.9450000000000149, 2.0000000000000284);
    ("suzuki-kasami", "poisson", 10, 1809, [ ("PRIVILEGE", 180); ("REQUEST", 1629) ], 200, 108.79413578822638, 0.33623018275776873, 0.88238867880341587);
    ("suzuki-kasami", "saturated", 50, 52351, [ ("PRIVILEGE", 999); ("REQUEST", 51352) ], 1000, 199.79999999999293, 9.7449999999996599, 10.000000000000142);
    ("suzuki-kasami", "poisson", 50, 48950, [ ("PRIVILEGE", 979); ("REQUEST", 47971) ], 1000, 515.23387791370419, 0.34677976610896444, 1.0772595130932139);
    ("ricart-agrawala", "saturated", 10, 3735, [ ("REPLY", 1845); ("REQUEST", 1890) ], 200, 40.1000000000003, 1.9600000000000137, 2.1000000000000005);
    ("ricart-agrawala", "poisson", 10, 3609, [ ("REPLY", 1800); ("REQUEST", 1809) ], 200, 108.79413578822638, 0.36779956484512283, 0.88238867880341587);
    ("ricart-agrawala", "saturated", 50, 101675, [ ("REPLY", 50225); ("REQUEST", 51450) ], 1000, 200.09999999999292, 9.7599999999996623, 10.09999999999998);
    ("ricart-agrawala", "poisson", 50, 98000, [ ("REPLY", 49000); ("REQUEST", 49000) ], 1000, 515.23387791370419, 0.36336703389673025, 1.2962074603676683);
    ("singhal", "saturated", 10, 3627, [ ("REPLY", 1791); ("REQUEST", 1836) ], 200, 39.800000000000296, 1.9450000000000149, 2.0000000000000284);
    ("singhal", "poisson", 10, 1770, [ ("REPLY", 884); ("REQUEST", 886) ], 200, 108.79413578822638, 0.34467786405307105, 1.0548754321590224);
    ("singhal", "saturated", 50, 99127, [ ("REPLY", 48951); ("REQUEST", 50176) ], 1000, 199.79999999999293, 9.7449999999996599, 10.000000000000142);
    ("singhal", "poisson", 50, 46906, [ ("REPLY", 23453); ("REQUEST", 23453) ], 1000, 515.23387791370419, 0.36114932226394419, 1.643373109490426);
    ("lamport", "saturated", 10, 5571, [ ("ACK", 1881); ("RELEASE", 1800); ("REQUEST", 1890) ], 200, 40.1000000000003, 1.9600000000000137, 2.1000000000000005);
    ("lamport", "poisson", 10, 5409, [ ("ACK", 1800); ("RELEASE", 1800); ("REQUEST", 1809) ], 200, 108.79413578822638, 0.36593452996868031, 0.88238867880341587);
    ("lamport", "saturated", 50, 151851, [ ("ACK", 51401); ("RELEASE", 49000); ("REQUEST", 51450) ], 1000, 200.09999999999292, 9.7599999999996623, 10.09999999999998);
    ("lamport", "poisson", 50, 147000, [ ("ACK", 49000); ("RELEASE", 49000); ("REQUEST", 49000) ], 1000, 515.23387791370419, 0.36312508932748772, 1.2962074603676683);
  ]

let test_golden_outcomes () =
  let run algo kind n =
    let cfg = Types.Config.default ~n in
    let requests = 20 * n and seed = 11 in
    let go (module A : Types.ALGO) =
      let module R = Sim_runner.Make (A) in
      if kind = "saturated" then R.run_saturated ~seed ~requests cfg
      else R.run_poisson ~seed ~requests ~rate:(2.0 /. float n) cfg
    in
    match algo with
    | "suzuki-kasami" -> go (module Baselines.Suzuki_kasami)
    | "ricart-agrawala" -> go (module Baselines.Ricart_agrawala)
    | "singhal" -> go (module Baselines.Singhal)
    | "lamport" -> go (module Baselines.Lamport)
    | _ -> assert false
  in
  List.iter
    (fun (algo, kind, n, messages, by_kind, completed, sim_time, mean_delay,
          max_delay) ->
      let o = run algo kind n in
      let name what = Printf.sprintf "%s %s n=%d: %s" algo kind n what in
      Alcotest.(check int) (name "messages") messages o.Sim_runner.messages;
      Alcotest.(check (list (pair string int))) (name "by kind") by_kind
        o.by_kind;
      Alcotest.(check int) (name "completed") completed o.completed;
      (* Exact: the same event order gives the same float arithmetic. *)
      Alcotest.(check (float 0.0)) (name "sim time") sim_time o.sim_time;
      Alcotest.(check (float 0.0)) (name "mean delay") mean_delay o.mean_delay;
      Alcotest.(check (float 0.0)) (name "max delay") max_delay o.max_delay)
    golden

let suite =
  ( "baselines",
    [
      Alcotest.test_case "central server" `Quick test_central;
      Alcotest.test_case "suzuki-kasami" `Quick test_suzuki_kasami;
      Alcotest.test_case "ricart-agrawala" `Quick test_ricart_agrawala;
      Alcotest.test_case "raymond" `Quick test_raymond;
      Alcotest.test_case "singhal dynamic" `Quick test_singhal;
      Alcotest.test_case "maekawa" `Quick test_maekawa;
      Alcotest.test_case "lamport" `Quick test_lamport;
      Alcotest.test_case "tree-quorum" `Quick test_tree_quorum;
      Alcotest.test_case "tree-quorum substitution rule" `Quick
        test_tree_quorum_rule;
      QCheck_alcotest.to_alcotest prop_tree_quorum_intersection;
      Alcotest.test_case "maekawa quorum intersection" `Quick
        test_maekawa_quorums;
      Alcotest.test_case "paper's saturation ordering" `Slow
        test_paper_ordering_at_saturation;
      Alcotest.test_case "figure 6 winner at high load" `Slow
        test_fig6_crossover;
      Alcotest.test_case "broadcast baselines: golden outcomes" `Quick
        test_golden_outcomes;
    ] )
