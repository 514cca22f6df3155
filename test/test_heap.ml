let test_order () =
  let h = Simkit.Heap.create () in
  List.iter (fun p -> Simkit.Heap.push h ~priority:p p)
    [ 5.0; 1.0; 4.0; 2.0; 3.0 ];
  let order = List.map fst (Simkit.Heap.to_sorted_list h) in
  Alcotest.(check (list (float 0.0))) "ascending" [ 1.0; 2.0; 3.0; 4.0; 5.0 ]
    order

let test_fifo_ties () =
  let h = Simkit.Heap.create () in
  List.iter (fun v -> Simkit.Heap.push h ~priority:1.0 v) [ "a"; "b"; "c" ];
  Simkit.Heap.push h ~priority:0.5 "first";
  let vs = List.map snd (Simkit.Heap.to_sorted_list h) in
  Alcotest.(check (list string)) "insertion order on ties"
    [ "first"; "a"; "b"; "c" ] vs

let test_peek_pop () =
  let h = Simkit.Heap.create () in
  Alcotest.(check bool) "empty" true (Simkit.Heap.is_empty h);
  Alcotest.(check (option (pair (float 0.0) int))) "peek empty" None
    (Simkit.Heap.peek h);
  Simkit.Heap.push h ~priority:2.0 2;
  Simkit.Heap.push h ~priority:1.0 1;
  Alcotest.(check (option (pair (float 0.0) int))) "peek min" (Some (1.0, 1))
    (Simkit.Heap.peek h);
  Alcotest.(check int) "size" 2 (Simkit.Heap.size h);
  Alcotest.(check (option (pair (float 0.0) int))) "pop min" (Some (1.0, 1))
    (Simkit.Heap.pop h);
  Alcotest.(check int) "size after pop" 1 (Simkit.Heap.size h)

let test_clear () =
  let h = Simkit.Heap.create () in
  for i = 1 to 100 do
    Simkit.Heap.push h ~priority:(float_of_int i) i
  done;
  Simkit.Heap.clear h;
  Alcotest.(check bool) "cleared" true (Simkit.Heap.is_empty h);
  Simkit.Heap.push h ~priority:1.0 1;
  Alcotest.(check int) "usable after clear" 1 (Simkit.Heap.size h)

let test_grow () =
  let h = Simkit.Heap.create ~capacity:2 () in
  for i = 1000 downto 1 do
    Simkit.Heap.push h ~priority:(float_of_int i) i
  done;
  Alcotest.(check int) "all inserted" 1000 (Simkit.Heap.size h);
  Alcotest.(check (option (pair (float 0.0) int))) "min" (Some (1.0, 1))
    (Simkit.Heap.pop h)

let test_capacity_preallocates () =
  (* [~capacity] must actually size the backing array: a 512-slot heap
     is at least ~500 words bigger than a 1-slot heap before any push. *)
  let words c = Obj.reachable_words (Obj.repr (Simkit.Heap.create ~capacity:c ())) in
  Alcotest.(check bool) "capacity preallocates" true
    (words 512 - words 1 >= 500)

(* Build a heap holding one heap-allocated value tracked by a weak
   pointer, without leaving a stack reference to the value behind. *)
let heap_with_tracked_value () =
  let h = Simkit.Heap.create () in
  let w = Weak.create 1 in
  let v = Bytes.make 32 'x' in
  Weak.set w 0 (Some v);
  Simkit.Heap.push h ~priority:1.0 v;
  (h, w)

let test_pop_releases_value () =
  let h, w = heap_with_tracked_value () in
  ignore (Simkit.Heap.pop h);
  Gc.full_major ();
  Alcotest.(check bool) "popped value is collectable" false (Weak.check w 0);
  Alcotest.(check int) "heap still usable" 0 (Simkit.Heap.size h)

let test_clear_releases_values () =
  let h, w = heap_with_tracked_value () in
  Simkit.Heap.push h ~priority:2.0 (Bytes.make 8 'y');
  Simkit.Heap.clear h;
  Gc.full_major ();
  Alcotest.(check bool) "cleared values are collectable" false (Weak.check w 0)

let test_drain_releases_last_value () =
  (* The final pop (size reaching 0) must also drop slot 0. *)
  let h, w = heap_with_tracked_value () in
  Simkit.Heap.push h ~priority:0.5 (Bytes.make 8 'z');
  ignore (Simkit.Heap.pop h);
  ignore (Simkit.Heap.pop h);
  Gc.full_major ();
  Alcotest.(check bool) "drained heap retains nothing" false (Weak.check w 0)

let prop_sorted =
  QCheck.Test.make ~name:"heap drains in sorted order" ~count:200
    QCheck.(list (float_bound_exclusive 1000.0))
    (fun ps ->
      let h = Simkit.Heap.create () in
      List.iter (fun p -> Simkit.Heap.push h ~priority:p p) ps;
      let drained = List.map fst (Simkit.Heap.to_sorted_list h) in
      drained = List.sort compare ps)

let prop_size =
  QCheck.Test.make ~name:"heap size tracks pushes and pops" ~count:200
    QCheck.(pair (small_list (float_bound_exclusive 10.0)) small_nat)
    (fun (ps, pops) ->
      let h = Simkit.Heap.create () in
      List.iter (fun p -> Simkit.Heap.push h ~priority:p p) ps;
      let pops = min pops (List.length ps) in
      for _ = 1 to pops do
        ignore (Simkit.Heap.pop h)
      done;
      Simkit.Heap.size h = List.length ps - pops)

let test_min_priority_pop_min () =
  let h = Simkit.Heap.create () in
  Alcotest.(check (float 0.0)) "empty: infinity" infinity
    (Simkit.Heap.min_priority h);
  Alcotest.check_raises "pop_min on empty"
    (Invalid_argument "Heap.pop_min: empty heap") (fun () ->
      ignore (Simkit.Heap.pop_min h));
  List.iter (fun p -> Simkit.Heap.push h ~priority:p (int_of_float p))
    [ 3.0; 1.0; 2.0 ];
  Alcotest.(check (float 0.0)) "min priority" 1.0 (Simkit.Heap.min_priority h);
  Alcotest.(check int) "pop_min" 1 (Simkit.Heap.pop_min h);
  Alcotest.(check (float 0.0)) "next min" 2.0 (Simkit.Heap.min_priority h);
  Alcotest.(check int) "size" 2 (Simkit.Heap.size h);
  Alcotest.(check int) "pop_min" 2 (Simkit.Heap.pop_min h);
  Alcotest.(check int) "pop_min" 3 (Simkit.Heap.pop_min h);
  Alcotest.(check (float 0.0)) "drained: infinity" infinity
    (Simkit.Heap.min_priority h)

let test_fifo_ties_across_growth () =
  (* Equal priorities interleaved with others, through several
     doublings from a one-slot heap: each priority class still drains
     in insertion order. *)
  let h = Simkit.Heap.create ~capacity:1 () in
  for i = 0 to 999 do
    Simkit.Heap.push h ~priority:(float_of_int (i mod 3)) i
  done;
  let drained = List.map snd (Simkit.Heap.to_sorted_list h) in
  let expected =
    List.concat_map
      (fun c -> List.filter (fun i -> i mod 3 = c) (List.init 1000 Fun.id))
      [ 0; 1; 2 ]
  in
  Alcotest.(check (list int)) "insertion order within each priority"
    expected drained

let test_pop_min_allocates_nothing () =
  let h = Simkit.Heap.create ~capacity:1 () in
  let v = "event" in
  (* Boxed priority constants, so the loop itself allocates nothing. *)
  let rec push_all = function
    | [] -> ()
    | p :: rest ->
        Simkit.Heap.push h ~priority:p v;
        push_all rest
  in
  let prios = [ 3.0; 1.0; 2.0; 1.0; 0.5; 2.0 ] in
  let cycles k =
    for _ = 1 to k do
      push_all prios;
      for _ = 1 to 6 do
        ignore (Simkit.Heap.pop_min h)
      done
    done
  in
  cycles 10 (* warm-up: grow the arrays to their final size *);
  let words f =
    let w0 = Gc.minor_words () in
    f ();
    Gc.minor_words () -. w0
  in
  let base = words ignore in
  let loop = words (fun () -> cycles 10_000) in
  Alcotest.(check (float 0.0)) "push/pop_min loop allocates 0 minor words"
    0.0 (loop -. base)

let suite =
  ( "heap",
    [
      Alcotest.test_case "ascending order" `Quick test_order;
      Alcotest.test_case "FIFO on equal priorities" `Quick test_fifo_ties;
      Alcotest.test_case "peek and pop" `Quick test_peek_pop;
      Alcotest.test_case "clear" `Quick test_clear;
      Alcotest.test_case "growth from small capacity" `Quick test_grow;
      Alcotest.test_case "capacity preallocates" `Quick
        test_capacity_preallocates;
      Alcotest.test_case "pop releases value" `Quick test_pop_releases_value;
      Alcotest.test_case "clear releases values" `Quick
        test_clear_releases_values;
      Alcotest.test_case "drain releases last value" `Quick
        test_drain_releases_last_value;
      QCheck_alcotest.to_alcotest prop_sorted;
      QCheck_alcotest.to_alcotest prop_size;
      Alcotest.test_case "min_priority and pop_min" `Quick
        test_min_priority_pop_min;
      Alcotest.test_case "FIFO ties across growth" `Quick
        test_fifo_ties_across_growth;
      Alcotest.test_case "push/pop_min allocates nothing" `Quick
        test_pop_min_allocates_nothing;
    ] )
