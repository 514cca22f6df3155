open Simkit

let make ?(n = 4) ?(latency = Network.Constant 0.1) () =
  let e = Engine.create () in
  let rng = Rng.create 1 in
  let net = Network.create e ~n ~rng ~latency in
  let log = ref [] in
  Network.set_handler net (fun ~src ~dst msg ->
      log := (Engine.now e, src, dst, msg) :: !log);
  (e, net, log)

let test_delivery_delay () =
  let e, net, log = make () in
  Network.send net ~src:0 ~dst:1 "hello";
  Engine.run e;
  match !log with
  | [ (t, 0, 1, "hello") ] ->
      Alcotest.(check (float 1e-9)) "constant latency" 0.1 t
  | _ -> Alcotest.fail "expected exactly one delivery"

let test_broadcast_count () =
  let e, net, log = make ~n:5 () in
  Network.broadcast net ~src:2 "x";
  Engine.run e;
  Alcotest.(check int) "n-1 deliveries" 4 (List.length !log);
  Alcotest.(check int) "n-1 sends counted" 4 (Network.sent net);
  Alcotest.(check bool) "sender not included" true
    (List.for_all (fun (_, _, dst, _) -> dst <> 2) !log)

let test_self_send_uncounted () =
  let e, net, log = make () in
  Network.send net ~src:3 ~dst:3 "self";
  Engine.run e;
  Alcotest.(check int) "delivered" 1 (List.length !log);
  Alcotest.(check int) "not counted" 0 (Network.sent net)

let test_loss () =
  let e, net, log = make () in
  Network.set_loss net 1.0;
  for _ = 1 to 10 do
    Network.send net ~src:0 ~dst:1 "m"
  done;
  Engine.run e;
  Alcotest.(check int) "all dropped" 0 (List.length !log);
  Alcotest.(check int) "drop counter" 10 (Network.dropped net);
  Alcotest.(check int) "sent counter includes drops" 10 (Network.sent net)

let test_interceptor () =
  let e, net, log = make () in
  Network.set_interceptor net (fun ~src:_ ~dst:_ msg ->
      match msg with
      | "drop-me" -> Network.Drop
      | "slow" -> Network.Delay 1.0
      | _ -> Network.Deliver);
  Network.send net ~src:0 ~dst:1 "drop-me";
  Network.send net ~src:0 ~dst:1 "slow";
  Network.send net ~src:0 ~dst:1 "normal";
  Engine.run e;
  let times = List.map (fun (t, _, _, m) -> (m, t)) !log in
  Alcotest.(check bool) "dropped" true (not (List.mem_assoc "drop-me" times));
  Alcotest.(check (float 1e-9)) "delayed" 1.1 (List.assoc "slow" times);
  Alcotest.(check (float 1e-9)) "normal" 0.1 (List.assoc "normal" times);
  Network.clear_interceptor net;
  Network.send net ~src:0 ~dst:1 "drop-me";
  Engine.run e;
  Alcotest.(check int) "interceptor cleared" 3 (List.length !log)

let test_crash_recover () =
  let e, net, log = make () in
  Network.crash net 1;
  Alcotest.(check bool) "is crashed" true (Network.is_crashed net 1);
  Network.send net ~src:0 ~dst:1 "lost";
  Network.send net ~src:1 ~dst:0 "also lost";
  Engine.run e;
  Alcotest.(check int) "no deliveries" 0 (List.length !log);
  Network.recover net 1;
  Network.send net ~src:0 ~dst:1 "ok";
  Engine.run e;
  Alcotest.(check int) "delivered after recover" 1 (List.length !log)

let test_crash_in_flight () =
  let e, net, log = make () in
  Network.send net ~src:0 ~dst:1 "in-flight";
  ignore (Engine.schedule e ~delay:0.05 (fun _ -> Network.crash net 1));
  Engine.run e;
  Alcotest.(check int) "dropped on arrival at dead node" 0 (List.length !log)

let test_partition_heal () =
  let e, net, log = make ~n:4 () in
  Network.partition net [ [ 0; 1 ]; [ 2; 3 ] ];
  Network.send net ~src:0 ~dst:1 "same-side";
  Network.send net ~src:0 ~dst:2 "cross";
  Engine.run e;
  Alcotest.(check int) "only same side delivered" 1 (List.length !log);
  Network.heal net;
  Network.send net ~src:0 ~dst:2 "healed";
  Engine.run e;
  Alcotest.(check int) "healed" 2 (List.length !log)

let test_uniform_latency () =
  let e, net, log = make ~latency:(Network.Uniform (0.1, 0.2)) () in
  for _ = 1 to 50 do
    Network.send net ~src:0 ~dst:1 "m"
  done;
  Engine.run e;
  List.iter
    (fun (t, _, _, _) ->
      if t < 0.1 || t >= 0.2 then Alcotest.fail "latency outside bounds")
    !log

let test_per_pair_latency () =
  let latency = Network.Per_pair (fun src dst -> float_of_int (src + dst)) in
  let e, net, log = make ~latency () in
  Network.send net ~src:1 ~dst:2 "m";
  Engine.run e;
  match !log with
  | [ (t, _, _, _) ] -> Alcotest.(check (float 1e-9)) "pair latency" 3.0 t
  | _ -> Alcotest.fail "one delivery expected"

(* --- heavy-tailed and multi-region delay models ------------------- *)

(* Empirical quantile over a sorted copy of [xs]. *)
let quantile xs p =
  let a = Array.of_list xs in
  Array.sort compare a;
  a.(int_of_float (p *. float_of_int (Array.length a - 1)))

let draw ~seed latency k =
  let rng = Simkit.Rng.create seed in
  List.init k (fun _ -> Network.sample rng latency ~src:0 ~dst:1)

let test_lognormal_quantiles () =
  (* Lognormal(median m, sigma s): q(p) = m * exp(s * z_p). Seeded
     draws must reproduce the analytic quantiles — and reproduce
     themselves exactly under the same seed. *)
  let lat = Network.Lognormal { median = 0.1; sigma = 0.5 } in
  let xs = draw ~seed:7 lat 20_000 in
  let close p expected =
    let got = quantile xs p in
    if Float.abs (got -. expected) /. expected > 0.05 then
      Alcotest.failf "lognormal q%.2f: got %.4f, expected %.4f" p got expected
  in
  close 0.5 0.1;
  close 0.95 (0.1 *. exp (0.5 *. 1.6449));
  close 0.05 (0.1 *. exp (-0.5 *. 1.6449));
  Alcotest.(check bool) "all positive" true (List.for_all (fun x -> x > 0.0) xs);
  Alcotest.(check (list (float 0.0))) "seeded replay is exact" xs
    (draw ~seed:7 lat 20_000)

let test_pareto_quantiles () =
  (* Pareto(scale x_m, shape a): q(p) = x_m / (1-p)^(1/a), truncated
     at [cap]. *)
  let lat = Network.Pareto { scale = 0.02; shape = 1.5; cap = 5.0 } in
  let xs = draw ~seed:11 lat 20_000 in
  let analytic p = 0.02 /. ((1.0 -. p) ** (1.0 /. 1.5)) in
  List.iter
    (fun (p, tol) ->
      (* The far tail of a heavy-tailed law converges slowly: give the
         q99 estimate more room than the body. *)
      let got = quantile xs p and expected = analytic p in
      if Float.abs (got -. expected) /. expected > tol then
        Alcotest.failf "pareto q%.2f: got %.4f, expected %.4f" p got expected)
    [ (0.5, 0.07); (0.9, 0.07); (0.99, 0.15) ];
  List.iter
    (fun x ->
      if x < 0.02 -. 1e-12 || x > 5.0 +. 1e-12 then
        Alcotest.failf "pareto sample %.4f outside [scale, cap]" x)
    xs;
  Alcotest.(check (list (float 0.0))) "seeded replay is exact" xs
    (draw ~seed:11 lat 20_000)

let test_region_matrix_sampling () =
  let base = [| [| 0.01; 0.12 |]; [| 0.12; 0.01 |] |] in
  let region_of = [| 0; 0; 1; 1 |] in
  (* jitter_sigma 0: the matrix is deterministic per pair. *)
  let flat = Network.regions ~region_of ~base () in
  let rng = Simkit.Rng.create 3 in
  Alcotest.(check (float 1e-9)) "intra-region" 0.01
    (Network.sample rng flat ~src:0 ~dst:1);
  Alcotest.(check (float 1e-9)) "cross-region" 0.12
    (Network.sample rng flat ~src:1 ~dst:2);
  (* With jitter the cross-region median stays on the matrix entry
     (lognormal jitter has median 1) and every draw is positive. *)
  let jitter = Network.regions ~region_of ~base ~jitter_sigma:0.3 () in
  let rng = Simkit.Rng.create 5 in
  let xs =
    List.init 20_000 (fun _ -> Network.sample rng jitter ~src:0 ~dst:3)
  in
  let med = quantile xs 0.5 in
  if Float.abs (med -. 0.12) /. 0.12 > 0.05 then
    Alcotest.failf "region median with jitter: got %.4f, expected 0.12" med;
  Alcotest.(check bool) "all positive" true (List.for_all (fun x -> x > 0.0) xs);
  (* Invalid shapes are rejected up front. *)
  Alcotest.check_raises "ragged matrix rejected"
    (Invalid_argument "Network.regions: base matrix must be square") (fun () ->
      ignore (Network.regions ~region_of ~base:[| [| 0.1 |]; [| 0.1; 0.2 |] |] ()))

(* One message's whole path, send to handler, on [Constant] latency:
   the engine event, the in-flight record and the boxed arrival time,
   10 minor words at most (there was once a fresh closure per message
   and the times were boxed twice). *)
let test_delivery_allocation () =
  let e = Engine.create () in
  let net =
    Network.create e ~n:2 ~rng:(Rng.create 1) ~latency:(Network.Constant 0.1)
  in
  let delivered = ref 0 in
  Network.set_handler net (fun ~src:_ ~dst:_ _ -> incr delivered);
  let msg = "m" in
  let cycles k =
    for _ = 1 to k do
      Network.send net ~src:0 ~dst:1 msg;
      ignore (Engine.step e)
    done
  in
  cycles 10 (* warm-up: the agenda's arrays reach their final size *);
  let words f =
    let w0 = Gc.minor_words () in
    f ();
    Gc.minor_words () -. w0
  in
  let base = words ignore in
  let k = 10_000 in
  let per_msg = (words (fun () -> cycles k) -. base) /. float_of_int k in
  Alcotest.(check int) "all delivered" (k + 10) !delivered;
  if per_msg > 10.0 then
    Alcotest.failf "send + delivery: %.2f minor words per message, over 10"
      per_msg

let suite =
  ( "network",
    [
      Alcotest.test_case "delivery delay" `Quick test_delivery_delay;
      Alcotest.test_case "delivery allocation" `Quick test_delivery_allocation;
      Alcotest.test_case "broadcast costs n-1" `Quick test_broadcast_count;
      Alcotest.test_case "self-send uncounted" `Quick test_self_send_uncounted;
      Alcotest.test_case "loss model" `Quick test_loss;
      Alcotest.test_case "interceptor verdicts" `Quick test_interceptor;
      Alcotest.test_case "crash and recover" `Quick test_crash_recover;
      Alcotest.test_case "crash catches in-flight" `Quick test_crash_in_flight;
      Alcotest.test_case "partition and heal" `Quick test_partition_heal;
      Alcotest.test_case "uniform latency bounds" `Quick test_uniform_latency;
      Alcotest.test_case "per-pair latency" `Quick test_per_pair_latency;
      Alcotest.test_case "lognormal seeded quantiles" `Quick
        test_lognormal_quantiles;
      Alcotest.test_case "pareto seeded quantiles" `Quick
        test_pareto_quantiles;
      Alcotest.test_case "region matrix sampling" `Quick
        test_region_matrix_sampling;
    ] )
