(** Array-based binary min-heap keyed by [(priority, sequence)], stored
    as parallel arrays so that the priorities stay unboxed.

    The sequence number is assigned at insertion time, so elements with
    equal priority are extracted in insertion order. This determinism is
    load-bearing for the discrete-event engine: two events scheduled at
    the same simulated instant always fire in the order they were
    scheduled, which keeps simulations reproducible across runs. *)

type 'a t
(** A mutable min-heap holding values of type ['a]. *)

val create : ?capacity:int -> unit -> 'a t
(** [create ()] is an empty heap. [capacity] pre-sizes the backing
    array (default 64), avoiding doubling-growth churn when the final
    size is known up front. *)

val size : 'a t -> int
(** Number of elements currently in the heap. *)

val is_empty : 'a t -> bool

val push : 'a t -> priority:float -> 'a -> unit
(** [push t ~priority v] inserts [v]. O(log n). *)

val min_priority : 'a t -> float
(** The minimum element's priority, or [infinity] if empty. O(1). *)

val pop_min : 'a t -> 'a
(** Remove and return the minimum element. Ties broken by insertion
    order. O(log n), and allocates nothing. The heap drops its reference
    to the removed value, so popped values are collectable
    immediately.
    @raise Invalid_argument if the heap is empty. *)

type cell = { mutable value : float }
(** A float-only record, so its field is stored unboxed. *)

val pop_min_into : 'a t -> cell -> 'a
(** {!pop_min}, also storing the removed element's priority in the
    cell. A float returned from a function that is not inlined is
    boxed; this hands the priority over without allocating, also where
    cross-module inlining is off.
    @raise Invalid_argument if the heap is empty. *)

val pop : 'a t -> (float * 'a) option
(** {!pop_min} with its priority, or [None] if empty. *)

val peek : 'a t -> (float * 'a) option
(** Return the minimum without removing it. O(1). *)

val clear : 'a t -> unit
(** Remove all elements. *)

val to_sorted_list : 'a t -> (float * 'a) list
(** Destructively drain the heap into an ascending list. Mostly useful
    for tests. *)
