(** Discrete-event simulation engine.

    A single-threaded event loop over simulated (real-valued) time.
    Events scheduled for the same instant fire in scheduling order, so a
    run is a deterministic function of the seed and the program. *)

type t
(** A simulation instance. *)

type handle
(** A cancellable reference to a scheduled event. *)

val create : ?capacity:int -> unit -> t
(** A fresh engine with clock at [0.0] and an empty agenda.
    [capacity] pre-sizes the agenda heap (default 256). *)

val reset : t -> unit
(** Return the engine to its just-created state — clock at [0.0],
    agenda empty — while keeping the heap's backing array, so a sweep
    can reuse one engine across replicates without re-growing the
    agenda each time. Outstanding handles become dangling and must not
    be cancelled after a reset. *)

val now : t -> float
(** Current simulated time. *)

val schedule : t -> delay:float -> (t -> unit) -> handle
(** [schedule t ~delay f] runs [f t] at time [now t +. delay].
    [delay] must be non-negative. *)

val schedule_at : t -> time:float -> (t -> unit) -> handle
(** [schedule_at t ~time f] runs [f t] at absolute time [time], which
    must not be in the simulated past. *)

val post : t -> delay:float -> ('a -> unit) -> 'a -> handle
(** [post t ~delay f x] runs [f x] at time [now t +. delay]; {!schedule}
    is [post] with the engine as argument. Posting many events through
    one preallocated [f] allocates only the event per post, not a
    closure capturing [x]. [delay] must be non-negative. *)

val cancel : t -> handle -> unit
(** Cancel a scheduled event. Cancelling an already-fired or
    already-cancelled event is a no-op. *)

val pending : t -> int
(** Number of not-yet-fired, not-cancelled events. *)

val stop : t -> unit
(** Make the innermost [run] return after the current event handler
    finishes. *)

val step : t -> bool
(** Fire the next event. Returns [false] when the agenda is empty. *)

val run : ?until:float -> ?max_events:int -> t -> unit
(** Fire events in timestamp order until the agenda empties, the clock
    would pass [until], [max_events] events have fired, or [stop] is
    called. The clock is left at the last fired event's time (or at
    [until] if that bound was hit). *)
