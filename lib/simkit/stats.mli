(** Streaming statistics for simulation output analysis.

    Everything here is single-pass and O(1) memory (except
    {!Histogram}, which is O(buckets)), so a million-request run can be
    summarized without retaining samples. *)

(** Running mean / variance / extrema via Welford's online algorithm,
    which is numerically stable for long runs. *)
module Tally : sig
  type t

  val create : unit -> t

  val reset : t -> unit
  (** Forget every sample in place (arena reuse across sweep
      replicates). *)

  val add : t -> float -> unit
  val count : t -> int
  val sum : t -> float
  val mean : t -> float
  (** Mean of the samples so far; [nan] when empty. *)

  val variance : t -> float
  (** Unbiased sample variance; [0.] with fewer than two samples. *)

  val stddev : t -> float
  val min : t -> float
  val max : t -> float

  val ci95_halfwidth : t -> float
  (** Half-width of the 95% confidence interval for the mean, using
      Student's t for small sample counts and the normal quantile
      beyond 30 samples. [0.] with fewer than two samples. *)

  val merge : t -> t -> t
  (** Combine two tallies as if all samples were added to one
      (Chan's parallel variance formula). *)

  val pp : Format.formatter -> t -> unit
end

(** Fixed-capacity moving window mean, as used by the starvation-free
    variant's adaptive monitor period (average Q-list size within a
    moving window, paper Section 4.1). *)
module Window : sig
  type t

  val create : int -> t
  (** [create capacity] keeps the last [capacity] samples. *)

  val add : t -> float -> unit
  val count : t -> int
  val is_full : t -> bool

  val mean : t -> float
  (** Mean over the samples currently in the window; [nan] when
      empty. *)

  val last : t -> float option
end

(** Fixed-width bucket histogram on [\[lo, hi)] with overflow and
    underflow buckets. *)
module Histogram : sig
  type t

  val create : lo:float -> hi:float -> buckets:int -> t
  val add : t -> float -> unit
  val count : t -> int

  val reset : t -> unit
  (** Zero every bucket in place, keeping the bucket layout. *)

  val quantile : t -> float -> float
  (** [quantile t q] approximates the [q]-quantile ([0 <= q <= 1]) from
      bucket midpoints. Requires at least one sample. *)

  val bucket_counts : t -> (float * float * int) list
  (** [(lo, hi, count)] per bucket, in order, including the
      under/overflow buckets with infinite edges. *)

  val pp : Format.formatter -> t -> unit
end

(** Named monotonically increasing counters. *)
module Counter : sig
  type t

  val create : unit -> t
  val incr : t -> string -> unit
  (** [incr t name] is [add t name 1]. *)

  val add : t -> string -> int -> unit
  (** [add t name k] adds [k] to counter [name], creating it at [k].
      Neither [add] nor [incr] allocates once [name] exists. *)

  val get : t -> string -> int

  val reset : t -> unit
  (** Zero every counter in place, keeping the interned names. *)

  val to_list : t -> (string * int) list
  (** Sorted by name. *)

  val pp : Format.formatter -> t -> unit
end

val jain_fairness : float array -> float
(** Jain's fairness index [(Σx)² / (n·Σx²)] over non-negative
    allocations: 1.0 = perfectly even, 1/n = maximally skewed.
    Returns 1.0 for an empty or all-zero vector. *)

val student_t95 : int -> float
(** [student_t95 df] is the two-sided 97.5% Student-t quantile for [df]
    degrees of freedom (exact table for df <= 30, 1.96 beyond). *)
