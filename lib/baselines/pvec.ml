(** Persistent vectors for the broadcast baselines' per-node state.

    Every message step of Suzuki-Kasami, Singhal, Ricart-Agrawala and
    Lamport used to copy an N-slot array; at N=1000 that is gigabytes
    per sweep. The two vectors here update in O(N/16) or O(N/62) words
    and follow three rules:

    - Persistent: an update returns a new value and never mutates the
      old one. The model checker and the property tests keep old
      states and compare them later.
    - Canonical: the same length and the same contents give
      structurally equal values with the same [Marshal] image, however
      they were built. The model checker keys states by the digest of
      their marshalled image, so a balanced tree (whose shape depends
      on insertion order) would split one state into many.
    - No sharing inside a value: every chunk or word array is its own
      block, so the marshalled image does not depend on which updates
      happened to share a block. *)

(** An int vector of 16-slot chunks under one spine, every slot 0
    until set. [set] copies one chunk and the spine. A chunk whose
    slots are all 0 is the empty array: [make] allocates only the
    spine, and [set] folds a chunk back to the empty array when it
    returns to all-zero, so the representation stays canonical. The
    empty array is an atom, which [Marshal] never shares. *)
module Ints : sig
  type t

  val make : int -> t
  (** [make n] has [n] slots, each 0. *)

  val get : t -> int -> int
  val set : t -> int -> int -> t
  (** [set v i x] is [v] itself when slot [i] already holds [x]. *)
end = struct
  type t = int array array

  let bits = 4
  let width = 1 lsl bits
  let mask = width - 1

  (* A materialized chunk always has [width] slots; those past [n] in
     the last chunk are never read. *)
  let make n = Array.make ((n + mask) lsr bits) [||]

  let get v i =
    let chunk = v.(i lsr bits) in
    if Array.length chunk = 0 then 0 else chunk.(i land mask)

  (* Whether every slot of [chunk] but [k] is 0. *)
  let zero_except chunk k =
    let rec go j = j = width || ((j = k || chunk.(j) = 0) && go (j + 1)) in
    go 0

  let set v i x =
    let c = i lsr bits and k = i land mask in
    let chunk = v.(c) in
    if (if Array.length chunk = 0 then 0 else chunk.(k)) = x then v
    else begin
      let chunk =
        if x = 0 && zero_except chunk k then [||]
        else begin
          let chunk =
            if Array.length chunk = 0 then Array.make width 0
            else Array.copy chunk
          in
          chunk.(k) <- x;
          chunk
        end
      in
      let v = Array.copy v in
      v.(c) <- chunk;
      v
    end
end

(** A set of node ids in [0, n) packed 62 to an int word (62, not 63,
    keeps every word non-negative). [add] copies the word array. *)
module Bits : sig
  type t

  val empty : int -> t
  (** [empty n] holds no id below [n]. *)

  val prefix : int -> int -> t
  (** [prefix n k] is [{0, ..., k}]. *)

  val mem : t -> int -> bool
  val add : t -> int -> t
  (** [add s i] is [s] itself when [i] is already a member. *)

  val elements : t -> int list
  (** Members in ascending order. *)
end = struct
  type t = int array

  let width = 62
  let empty n = Array.make ((n + width - 1) / width) 0

  let prefix n k =
    Array.init ((n + width - 1) / width) (fun w ->
        let lo = w * width in
        if k >= lo + width - 1 then (1 lsl width) - 1
        else if k < lo then 0
        else (1 lsl (k - lo + 1)) - 1)

  let mem s i = s.(i / width) land (1 lsl (i mod width)) <> 0

  let add s i =
    if mem s i then s
    else begin
      let s = Array.copy s in
      s.(i / width) <- s.(i / width) lor (1 lsl (i mod width));
      s
    end

  let elements s =
    let acc = ref [] in
    for w = Array.length s - 1 downto 0 do
      let word = s.(w) in
      if word <> 0 then
        for b = width - 1 downto 0 do
          if word land (1 lsl b) <> 0 then acc := ((w * width) + b) :: !acc
        done
    done;
    !acc
end
