(* An event runs [run arg] at its time. The argument type is hidden,
   so a caller that posts many events through one preallocated [run]
   (the network's arrival function) allocates only this record and its
   argument per event, not a fresh closure; [schedule] is the case
   [arg = engine]. [cancelled] is also set when the event fires, so
   cancelling a fired event is the documented no-op and [live] stays
   exact. *)
type event =
  | Ev : { mutable cancelled : bool; run : 'a -> unit; arg : 'a } -> event

(* The clock and the popped event's time are float-only records,
   stored unboxed, so advancing the clock allocates nothing (a float
   field of [t] would be boxed). *)
and t = {
  agenda : event Heap.t;
  clock : Heap.cell;
  popped : Heap.cell;  (* time of the event last taken off [agenda] *)
  mutable live : int; (* scheduled, not fired, not cancelled *)
  mutable stopping : bool;
}

type handle = event

let create ?(capacity = 256) () =
  {
    agenda = Heap.create ~capacity ();
    clock = { value = 0.0 };
    popped = { value = 0.0 };
    live = 0;
    stopping = false;
  }

let reset t =
  Heap.clear t.agenda;
  t.clock.value <- 0.0;
  t.live <- 0;
  t.stopping <- false

let now t = t.clock.value

(* Out of line, so the inlined [post_at] stays small. *)
let past time now =
  invalid_arg
    (Printf.sprintf "Engine.schedule_at: time %g is in the past (now %g)" time
       now)

let[@inline] post_at t ~time run arg =
  if time < t.clock.value then past time t.clock.value;
  let ev = Ev { cancelled = false; run; arg } in
  Heap.push t.agenda ~priority:time ev;
  t.live <- t.live + 1;
  ev

let[@inline] post t ~delay run arg =
  if delay < 0.0 then invalid_arg "Engine.schedule: negative delay";
  post_at t ~time:(t.clock.value +. delay) run arg

let schedule_at t ~time action = post_at t ~time action t
let schedule t ~delay action = post t ~delay action t

let cancel t (Ev ev) =
  if not ev.cancelled then begin
    ev.cancelled <- true;
    t.live <- t.live - 1
  end

let pending t = t.live
let stop t = t.stopping <- true

(* Fire the event just popped into [popped]. The loops below take the
   head with [Heap.pop_min_into], which allocates nothing: no option,
   no tuple, no boxed float. *)
let[@inline] fire t (Ev ev) =
  t.clock.value <- t.popped.value;
  t.live <- t.live - 1;
  ev.cancelled <- true;
  ev.run ev.arg

let rec step t =
  if Heap.is_empty t.agenda then false
  else begin
    match Heap.pop_min_into t.agenda t.popped with
    | Ev { cancelled = true; _ } -> step t
    | ev ->
        fire t ev;
        true
  end

let run ?until ?max_events t =
  t.stopping <- false;
  let agenda = t.agenda in
  let limit = match max_events with Some m -> m | None -> max_int in
  let fired = ref 0 in
  let bounded = ref false in
  while
    (not !bounded) && (not t.stopping) && !fired < limit
    && not (Heap.is_empty agenda)
  do
    match until with
    | Some u when Heap.min_priority agenda > u ->
        (* Every event left is past the bound. The clock moves to it
           only if one of them is still live: a cancelled event does
           not hold the clock. *)
        if t.live > 0 then t.clock.value <- u;
        bounded := true
    | _ ->
        match Heap.pop_min_into agenda t.popped with
        | Ev { cancelled = true; _ } -> ()
        | ev ->
            fire t ev;
            incr fired
  done
