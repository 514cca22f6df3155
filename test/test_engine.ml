open Simkit

let test_ordering () =
  let e = Engine.create () in
  let log = ref [] in
  let fire tag _ = log := tag :: !log in
  ignore (Engine.schedule e ~delay:3.0 (fire "c"));
  ignore (Engine.schedule e ~delay:1.0 (fire "a"));
  ignore (Engine.schedule e ~delay:2.0 (fire "b"));
  Engine.run e;
  Alcotest.(check (list string)) "timestamp order" [ "a"; "b"; "c" ]
    (List.rev !log);
  Alcotest.(check (float 1e-9)) "clock at last event" 3.0 (Engine.now e)

let test_same_time_fifo () =
  let e = Engine.create () in
  let log = ref [] in
  for i = 1 to 5 do
    ignore (Engine.schedule e ~delay:1.0 (fun _ -> log := i :: !log))
  done;
  Engine.run e;
  Alcotest.(check (list int)) "scheduling order on ties" [ 1; 2; 3; 4; 5 ]
    (List.rev !log)

let test_cancel () =
  let e = Engine.create () in
  let fired = ref false in
  let h = Engine.schedule e ~delay:1.0 (fun _ -> fired := true) in
  Engine.cancel e h;
  Alcotest.(check int) "pending after cancel" 0 (Engine.pending e);
  Engine.run e;
  Alcotest.(check bool) "cancelled never fires" false !fired;
  (* double cancel is a no-op *)
  Engine.cancel e h

let test_until () =
  let e = Engine.create () in
  let count = ref 0 in
  let rec arm d =
    ignore
      (Engine.schedule e ~delay:d (fun _ ->
           incr count;
           arm 1.0))
  in
  arm 1.0;
  Engine.run ~until:5.5 e;
  Alcotest.(check int) "events within bound" 5 !count;
  Alcotest.(check (float 1e-9)) "clock at bound" 5.5 (Engine.now e)

let test_stop () =
  let e = Engine.create () in
  let count = ref 0 in
  for _ = 1 to 10 do
    ignore
      (Engine.schedule e ~delay:1.0 (fun e ->
           incr count;
           if !count = 3 then Engine.stop e))
  done;
  Engine.run e;
  Alcotest.(check int) "stopped early" 3 !count;
  Engine.run e;
  Alcotest.(check int) "run resumes" 10 !count

let test_max_events () =
  let e = Engine.create () in
  let count = ref 0 in
  for i = 1 to 10 do
    ignore (Engine.schedule e ~delay:(float_of_int i) (fun _ -> incr count))
  done;
  Engine.run ~max_events:4 e;
  Alcotest.(check int) "bounded" 4 !count

let test_past_rejected () =
  let e = Engine.create () in
  ignore (Engine.schedule e ~delay:5.0 (fun _ -> ()));
  Engine.run e;
  Alcotest.check_raises "past schedule rejected"
    (Invalid_argument
       "Engine.schedule_at: time 1 is in the past (now 5)")
    (fun () -> ignore (Engine.schedule_at e ~time:1.0 (fun _ -> ())))

let test_nested_scheduling () =
  let e = Engine.create () in
  let log = ref [] in
  ignore
    (Engine.schedule e ~delay:1.0 (fun e ->
         log := "outer" :: !log;
         ignore
           (Engine.schedule e ~delay:0.0 (fun _ -> log := "inner" :: !log))));
  ignore (Engine.schedule e ~delay:2.0 (fun _ -> log := "later" :: !log));
  Engine.run e;
  Alcotest.(check (list string)) "nested zero-delay fires before later"
    [ "outer"; "inner"; "later" ] (List.rev !log)

let test_cancelled_not_counted () =
  (* Cancelled events are skipped without counting toward the bound. *)
  let e = Engine.create () in
  let log = ref [] in
  let hs =
    List.init 10 (fun i ->
        Engine.schedule e ~delay:(float_of_int (i + 1)) (fun _ ->
            log := i :: !log))
  in
  List.iteri (fun i h -> if i mod 2 = 0 then Engine.cancel e h) hs;
  Engine.run ~max_events:3 e;
  Alcotest.(check (list int)) "three live events fired" [ 1; 3; 5 ]
    (List.rev !log);
  Alcotest.(check (float 0.0)) "clock at the third" 6.0 (Engine.now e);
  Alcotest.(check int) "pending" 2 (Engine.pending e);
  Engine.run ~max_events:0 e;
  Alcotest.(check int) "zero bound fires nothing" 3 (List.length !log)

let test_until_with_cancelled () =
  (* The bound moves the clock only while a live event lies past it; a
     cancelled one does not hold the clock. *)
  let e = Engine.create () in
  ignore (Engine.schedule e ~delay:1.0 (fun _ -> ()));
  let late = Engine.schedule e ~delay:10.0 (fun _ -> ()) in
  Engine.cancel e late;
  Engine.run ~until:5.0 e;
  Alcotest.(check (float 0.0)) "only cancelled beyond: clock stays" 1.0
    (Engine.now e);
  let fired = ref false in
  ignore (Engine.schedule e ~delay:9.0 (fun _ -> fired := true));
  Engine.run ~until:5.0 e;
  Alcotest.(check (float 0.0)) "live beyond: clock at bound" 5.0
    (Engine.now e);
  Alcotest.(check bool) "not fired yet" false !fired;
  Alcotest.(check bool) "step fires it" true (Engine.step e);
  Alcotest.(check bool) "fired" true !fired;
  Alcotest.(check (float 0.0)) "clock at the event" 10.0 (Engine.now e);
  Alcotest.(check bool) "agenda empty" false (Engine.step e)

let test_cancel_after_fire () =
  let e = Engine.create () in
  let h = Engine.schedule e ~delay:1.0 (fun _ -> ()) in
  ignore (Engine.schedule e ~delay:2.0 (fun _ -> ()));
  Alcotest.(check bool) "fired one" true (Engine.step e);
  Engine.cancel e h;
  Alcotest.(check int) "late cancel is a no-op" 1 (Engine.pending e)

let suite =
  ( "engine",
    [
      Alcotest.test_case "timestamp ordering" `Quick test_ordering;
      Alcotest.test_case "same-time FIFO" `Quick test_same_time_fifo;
      Alcotest.test_case "cancellation" `Quick test_cancel;
      Alcotest.test_case "run until bound" `Quick test_until;
      Alcotest.test_case "stop" `Quick test_stop;
      Alcotest.test_case "max events" `Quick test_max_events;
      Alcotest.test_case "past scheduling rejected" `Quick test_past_rejected;
      Alcotest.test_case "nested scheduling" `Quick test_nested_scheduling;
      Alcotest.test_case "cancelled events not counted" `Quick
        test_cancelled_not_counted;
      Alcotest.test_case "until with cancelled events" `Quick
        test_until_with_cancelled;
      Alcotest.test_case "cancel after fire" `Quick test_cancel_after_fire;
    ] )
