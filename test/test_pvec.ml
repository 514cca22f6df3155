(* The persistent vectors behind the broadcast baselines' state:
   persistence, canonical form and the bit-set boundaries. *)

module Ints = Baselines.Pvec.Ints
module Bits = Baselines.Pvec.Bits

let digest v = Digest.to_hex (Digest.string (Marshal.to_string v []))
let n = 200

let test_ints_persistent () =
  let v0 = Ints.make n in
  let v1 = Ints.set v0 17 5 in
  let v2 = Ints.set v1 17 6 in
  Alcotest.(check int) "old version unchanged" 0 (Ints.get v0 17);
  Alcotest.(check int) "middle version unchanged" 5 (Ints.get v1 17);
  Alcotest.(check int) "new version" 6 (Ints.get v2 17);
  Alcotest.(check bool) "unchanged set is the same value" true
    (Ints.set v2 17 6 == v2);
  for i = 0 to n - 1 do
    if i <> 17 then
      Alcotest.(check int) (Printf.sprintf "slot %d untouched" i) 0 (Ints.get v2 i)
  done

let test_ints_canonical () =
  let set_all v l = List.fold_left (fun v (i, x) -> Ints.set v i x) v l in
  let ops = [ (3, 1); (20, 2); (199, 3); (16, 4); (15, 5) ] in
  let a = set_all (Ints.make n) ops in
  let b = set_all (Ints.make n) (List.rev ops) in
  Alcotest.(check bool) "insertion orders give equal values" true (a = b);
  Alcotest.(check string) "and the same marshalled image" (digest a) (digest b);
  let back = Ints.set (Ints.set (Ints.make n) 40 9) 40 0 in
  Alcotest.(check bool) "set and reset equals fresh" true (back = Ints.make n);
  Alcotest.(check string) "with the same image" (digest (Ints.make n))
    (digest back);
  (* Two slots of one chunk, and a neighbouring chunk, cleared in
     different orders. *)
  let set_some = set_all (Ints.make n) [ (32, 1); (33, 2); (48, 3) ] in
  let cleared_a = set_all set_some [ (32, 0); (33, 0) ] in
  let cleared_b = set_all set_some [ (33, 0); (32, 0) ] in
  let only_48 = Ints.set (Ints.make n) 48 3 in
  Alcotest.(check bool) "cleared chunk equals untouched" true
    (cleared_a = only_48 && cleared_b = only_48);
  Alcotest.(check string) "cleared chunk: same image" (digest only_48)
    (digest cleared_a);
  Alcotest.(check string) "either clearing order: same image" (digest only_48)
    (digest cleared_b)

let test_bits_persistent () =
  let s0 = Bits.empty n in
  let s1 = Bits.add s0 70 in
  let s2 = Bits.add s1 3 in
  Alcotest.(check bool) "old version unchanged" false (Bits.mem s0 70);
  Alcotest.(check (list int)) "middle version" [ 70 ] (Bits.elements s1);
  Alcotest.(check (list int)) "new version" [ 3; 70 ] (Bits.elements s2);
  Alcotest.(check bool) "adding a member is the same value" true
    (Bits.add s2 70 == s2)

let test_bits_elements_ascending () =
  let ids = [ 199; 0; 62; 61; 124; 5; 123; 63 ] in
  let s = List.fold_left Bits.add (Bits.empty n) ids in
  Alcotest.(check (list int)) "ascending" (List.sort compare ids)
    (Bits.elements s)

let test_bits_prefix () =
  (* Word (62) and chunk (16) boundaries, and the last id. *)
  List.iter
    (fun (n, k) ->
      let s = Bits.prefix n k in
      Alcotest.(check (list int))
        (Printf.sprintf "prefix %d %d" n k)
        (List.init (k + 1) Fun.id) (Bits.elements s);
      let built = List.fold_left Bits.add (Bits.empty n) (List.init (k + 1) Fun.id) in
      Alcotest.(check bool)
        (Printf.sprintf "prefix %d %d equals the added set" n k)
        true (s = built);
      Alcotest.(check string)
        (Printf.sprintf "prefix %d %d: same image" n k)
        (digest built) (digest s))
    [ (n, 0); (n, 15); (n, 16); (n, 61); (n, 62); (n, 123); (n, n - 1);
      (62, 61); (63, 62); (3, 2) ]

let test_bits_canonical () =
  let ids = [ 7; 150; 62; 61; 0 ] in
  let a = List.fold_left Bits.add (Bits.empty n) ids in
  let b = List.fold_left Bits.add (Bits.empty n) (List.rev ids) in
  Alcotest.(check bool) "insertion orders give equal values" true (a = b);
  Alcotest.(check string) "and the same marshalled image" (digest a) (digest b)

(* Writes of 0 make chunks return to all-zero, which must give the
   same value and image as a vector built from the model directly. *)
let prop_ints_model =
  QCheck.Test.make ~name:"int vector matches an array model" ~count:300
    QCheck.(
      pair (int_range 1 100)
        (small_list (pair small_nat (oneof [ always 0; small_int ]))))
    (fun (n, ops) ->
      let model = Array.make n 0 in
      let v =
        List.fold_left
          (fun v (i, x) ->
            let i = i mod n in
            model.(i) <- x;
            Ints.set v i x)
          (Ints.make n) ops
      in
      let direct =
        Array.fold_left
          (fun (v, i) x -> (Ints.set v i x, i + 1))
          (Ints.make n, 0) model
        |> fst
      in
      List.for_all (fun i -> Ints.get v i = model.(i)) (List.init n Fun.id)
      && v = direct
      && digest v = digest direct)

let prop_bits_model =
  QCheck.Test.make ~name:"bit set matches a bool-array model" ~count:200
    QCheck.(pair (int_range 1 200) (small_list small_nat))
    (fun (n, ids) ->
      let model = Array.make n false in
      let s =
        List.fold_left
          (fun s i ->
            let i = i mod n in
            model.(i) <- true;
            Bits.add s i)
          (Bits.empty n) ids
      in
      Bits.elements s = List.filter (fun i -> model.(i)) (List.init n Fun.id)
      && List.for_all (fun i -> Bits.mem s i = model.(i)) (List.init n Fun.id))

let suite =
  ( "pvec",
    [
      Alcotest.test_case "int vector is persistent" `Quick test_ints_persistent;
      Alcotest.test_case "int vector is canonical" `Quick test_ints_canonical;
      Alcotest.test_case "bit set is persistent" `Quick test_bits_persistent;
      Alcotest.test_case "bit set elements ascend" `Quick
        test_bits_elements_ascending;
      Alcotest.test_case "bit set prefix boundaries" `Quick test_bits_prefix;
      Alcotest.test_case "bit set is canonical" `Quick test_bits_canonical;
      QCheck_alcotest.to_alcotest prop_ints_model;
      QCheck_alcotest.to_alcotest prop_bits_model;
    ] )
