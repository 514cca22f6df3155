(* [cancelled] is also set when the event fires, so cancelling a fired
   event is the documented no-op and [live] stays exact. *)
type event = { mutable cancelled : bool; action : t -> unit }

and t = {
  agenda : event Heap.t;
  clock : clock;
  mutable live : int; (* scheduled, not fired, not cancelled *)
  mutable stopping : bool;
}

(* A float-only record stores its field unboxed, so advancing the clock
   allocates nothing (a float field of [t] would be boxed). *)
and clock = { mutable time : float }

type handle = event

let create ?(capacity = 256) () =
  {
    agenda = Heap.create ~capacity ();
    clock = { time = 0.0 };
    live = 0;
    stopping = false;
  }

let reset t =
  Heap.clear t.agenda;
  t.clock.time <- 0.0;
  t.live <- 0;
  t.stopping <- false

let now t = t.clock.time

let schedule_at t ~time action =
  if time < t.clock.time then
    invalid_arg
      (Printf.sprintf "Engine.schedule_at: time %g is in the past (now %g)"
         time t.clock.time);
  let ev = { cancelled = false; action } in
  Heap.push t.agenda ~priority:time ev;
  t.live <- t.live + 1;
  ev

let schedule t ~delay action =
  if delay < 0.0 then invalid_arg "Engine.schedule: negative delay";
  schedule_at t ~time:(t.clock.time +. delay) action

let cancel t ev =
  if not ev.cancelled then begin
    ev.cancelled <- true;
    t.live <- t.live - 1
  end

let pending t = t.live
let stop t = t.stopping <- true

(* Fire a popped event at its time. The loops below read the head with
   [Heap.min_priority] and [Heap.pop_min], which allocate nothing: no
   option, no tuple, no boxed float. *)
let[@inline] fire t time ev =
  t.clock.time <- time;
  t.live <- t.live - 1;
  ev.cancelled <- true;
  ev.action t

let rec step t =
  if Heap.is_empty t.agenda then false
  else begin
    let time = Heap.min_priority t.agenda in
    let ev = Heap.pop_min t.agenda in
    if ev.cancelled then step t
    else begin
      fire t time ev;
      true
    end
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
    let time = Heap.min_priority agenda in
    match until with
    | Some u when time > u ->
        (* Every event left is past the bound. The clock moves to it
           only if one of them is still live: a cancelled event does
           not hold the clock. *)
        if t.live > 0 then t.clock.time <- u;
        bounded := true
    | _ ->
        let ev = Heap.pop_min agenda in
        if not ev.cancelled then begin
          fire t time ev;
          incr fired
        end
  done
