open Simkit.Stats

let feq ?(eps = 1e-9) a b = abs_float (a -. b) < eps

let test_tally_basics () =
  let t = Tally.create () in
  Alcotest.(check int) "empty count" 0 (Tally.count t);
  List.iter (Tally.add t) [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ];
  Alcotest.(check bool) "mean" true (feq (Tally.mean t) 5.0);
  Alcotest.(check bool) "variance (unbiased)" true
    (feq (Tally.variance t) (32.0 /. 7.0));
  Alcotest.(check bool) "min" true (feq (Tally.min t) 2.0);
  Alcotest.(check bool) "max" true (feq (Tally.max t) 9.0);
  Alcotest.(check bool) "sum" true (feq (Tally.sum t) 40.0)

let test_tally_merge () =
  let a = Tally.create () and b = Tally.create () and all = Tally.create () in
  let xs = [ 1.0; 2.5; -3.0; 7.25; 0.0; 12.0 ] in
  List.iteri
    (fun i x ->
      Tally.add all x;
      Tally.add (if i mod 2 = 0 then a else b) x)
    xs;
  let m = Tally.merge a b in
  Alcotest.(check bool) "merged mean" true (feq (Tally.mean m) (Tally.mean all));
  Alcotest.(check bool) "merged variance" true
    (feq ~eps:1e-6 (Tally.variance m) (Tally.variance all));
  Alcotest.(check int) "merged count" (Tally.count all) (Tally.count m)

let test_ci95 () =
  let t = Tally.create () in
  Alcotest.(check bool) "ci of <2 samples" true (feq (Tally.ci95_halfwidth t) 0.0);
  Tally.add t 1.0;
  Tally.add t 3.0;
  (* n=2: sd = sqrt(2), t(1) = 12.706, hw = 12.706 * sqrt(2) / sqrt(2) *)
  Alcotest.(check bool) "small-sample t quantile" true
    (feq ~eps:1e-3 (Tally.ci95_halfwidth t) 12.706)

let test_student_t () =
  Alcotest.(check bool) "df=1" true (feq (student_t95 1) 12.706);
  Alcotest.(check bool) "df=30" true (feq (student_t95 30) 2.042);
  Alcotest.(check bool) "df large" true (feq (student_t95 1000) 1.96)

let test_window () =
  let w = Window.create 3 in
  Alcotest.(check bool) "empty mean is nan" true (Float.is_nan (Window.mean w));
  Window.add w 1.0;
  Window.add w 2.0;
  Alcotest.(check bool) "partial mean" true (feq (Window.mean w) 1.5);
  Alcotest.(check bool) "not yet full" true (not (Window.is_full w));
  Window.add w 3.0;
  Window.add w 10.0;
  (* evicts 1.0 *)
  Alcotest.(check bool) "rolling mean" true (feq (Window.mean w) 5.0);
  Alcotest.(check (option (float 0.0))) "last" (Some 10.0) (Window.last w);
  Alcotest.(check int) "count capped" 3 (Window.count w)

let test_histogram () =
  let h = Histogram.create ~lo:0.0 ~hi:10.0 ~buckets:10 in
  List.iter (Histogram.add h) [ -1.0; 0.5; 1.5; 1.7; 5.0; 25.0 ];
  Alcotest.(check int) "count" 6 (Histogram.count h);
  let counts = Histogram.bucket_counts h in
  let under = List.hd counts in
  let _, _, under_n = under in
  Alcotest.(check int) "underflow" 1 under_n;
  let _, _, over_n = List.nth counts (List.length counts - 1) in
  Alcotest.(check int) "overflow" 1 over_n;
  let q = Histogram.quantile h 0.5 in
  Alcotest.(check bool) "median in [1,2)" true (q >= 1.0 && q < 2.0)

let test_counter () =
  let c = Counter.create () in
  Counter.incr c "a";
  Counter.add c "b" 4;
  Counter.incr c "a";
  Alcotest.(check int) "a" 2 (Counter.get c "a");
  Alcotest.(check int) "b" 4 (Counter.get c "b");
  Alcotest.(check int) "missing" 0 (Counter.get c "zzz");
  Alcotest.(check (list (pair string int))) "sorted list"
    [ ("a", 2); ("b", 4) ] (Counter.to_list c)

(* The simulator bumps a counter per message sent: on an existing key
   neither [incr], [add] nor [get] may allocate. *)
let test_counter_allocates_nothing () =
  let c = Counter.create () in
  let key = "REQUEST" in
  Counter.incr c key;
  let words f =
    let w0 = Gc.minor_words () in
    f ();
    Gc.minor_words () -. w0
  in
  let base = words ignore in
  let loop =
    words (fun () ->
        for _ = 1 to 10_000 do
          Counter.incr c key;
          Counter.add c key 3;
          ignore (Sys.opaque_identity (Counter.get c key))
        done)
  in
  Alcotest.(check (float 0.0)) "incr/add/get allocate 0 minor words" 0.0
    (loop -. base);
  Alcotest.(check int) "counted" 40_001 (Counter.get c key)

let prop_tally_mean =
  QCheck.Test.make ~name:"tally mean equals list mean" ~count:300
    QCheck.(list_of_size Gen.(1 -- 50) (float_bound_exclusive 1000.0))
    (fun xs ->
      let t = Tally.create () in
      List.iter (Tally.add t) xs;
      let expected = List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs) in
      abs_float (Tally.mean t -. expected) < 1e-6)

let prop_window_mean =
  QCheck.Test.make ~name:"window mean equals mean of last k" ~count:300
    QCheck.(pair (int_range 1 10) (list_of_size Gen.(1 -- 60) (float_bound_exclusive 100.0)))
    (fun (k, xs) ->
      let w = Window.create k in
      List.iter (Window.add w) xs;
      let lastk =
        let rev = List.rev xs in
        List.filteri (fun i _ -> i < k) rev
      in
      let expected =
        List.fold_left ( +. ) 0.0 lastk /. float_of_int (List.length lastk)
      in
      abs_float (Window.mean w -. expected) < 1e-6)

let suite =
  ( "stats",
    [
      Alcotest.test_case "tally basics" `Quick test_tally_basics;
      Alcotest.test_case "tally merge" `Quick test_tally_merge;
      Alcotest.test_case "confidence interval" `Quick test_ci95;
      Alcotest.test_case "student-t table" `Quick test_student_t;
      Alcotest.test_case "moving window" `Quick test_window;
      Alcotest.test_case "histogram" `Quick test_histogram;
      Alcotest.test_case "counter" `Quick test_counter;
      Alcotest.test_case "counter allocates nothing" `Quick
        test_counter_allocates_nothing;
      QCheck_alcotest.to_alcotest prop_tally_mean;
      QCheck_alcotest.to_alcotest prop_window_mean;
    ] )
