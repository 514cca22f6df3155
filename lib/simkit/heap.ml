(* Struct of arrays: priorities unboxed in a float array, so neither a
   push nor a [pop_min] allocates. Values are stored as [Obj.t] so the
   values array is never a flat float array, whatever ['a] is. *)
type 'a t = {
  mutable prio : float array;
  mutable seq : int array;
  mutable vals : Obj.t array;
  mutable size : int;
  mutable next_seq : int;
}

(* An immediate placeholder fills every unused value slot, so a popped
   value (and any closure it captures) is released to the GC at pop
   time instead of lingering in the backing array. *)
let dummy = Obj.repr 0

let create ?(capacity = 64) () =
  let capacity = max capacity 0 in
  {
    prio = Array.make capacity nan;
    seq = Array.make capacity 0;
    vals = Array.make capacity dummy;
    size = 0;
    next_seq = 0;
  }

let size t = t.size
let is_empty t = t.size = 0

let grow t =
  let cap = Array.length t.vals in
  if t.size >= cap then begin
    let ncap = if cap = 0 then 64 else cap * 2 in
    let prio = Array.make ncap nan
    and seq = Array.make ncap 0
    and vals = Array.make ncap dummy in
    Array.blit t.prio 0 prio 0 t.size;
    Array.blit t.seq 0 seq 0 t.size;
    Array.blit t.vals 0 vals 0 t.size;
    t.prio <- prio;
    t.seq <- seq;
    t.vals <- vals
  end

let move t ~src ~dst =
  t.prio.(dst) <- t.prio.(src);
  t.seq.(dst) <- t.seq.(src);
  t.vals.(dst) <- t.vals.(src)

(* Both sifts move a hole instead of swapping, comparing the moving
   (priority, seq) key against the same slots, in the same order, as
   a swapping sift would. The loops stay inside their callers so the
   moving priority is never boxed, and [push] is inlined into the
   engine's posting path, so an event's time is not boxed to cross
   into it either. *)
let[@inline] push t ~priority v =
  grow t;
  let s = t.next_seq in
  t.next_seq <- s + 1;
  let i = ref t.size in
  t.size <- t.size + 1;
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) / 2 in
    let pp = t.prio.(parent) in
    if priority < pp || (priority = pp && s < t.seq.(parent)) then begin
      move t ~src:parent ~dst:!i;
      i := parent
    end
    else continue := false
  done;
  t.prio.(!i) <- priority;
  t.seq.(!i) <- s;
  t.vals.(!i) <- Obj.repr v

let[@inline] min_priority t = if t.size = 0 then infinity else t.prio.(0)

let pop_min t =
  if t.size = 0 then invalid_arg "Heap.pop_min: empty heap";
  let top = t.vals.(0) in
  let n = t.size - 1 in
  t.size <- n;
  if n > 0 then begin
    (* Sift the last element down from the root. *)
    let p = t.prio.(n) and s = t.seq.(n) and v = t.vals.(n) in
    t.vals.(n) <- dummy;
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
      let c = ref (-1) in
      if l < n && (t.prio.(l) < p || (t.prio.(l) = p && t.seq.(l) < s)) then
        c := l;
      if r < n then begin
        let cp = if !c < 0 then p else t.prio.(!c)
        and cs = if !c < 0 then s else t.seq.(!c) in
        if t.prio.(r) < cp || (t.prio.(r) = cp && t.seq.(r) < cs) then c := r
      end;
      if !c < 0 then continue := false
      else begin
        move t ~src:!c ~dst:!i;
        i := !c
      end
    done;
    t.prio.(!i) <- p;
    t.seq.(!i) <- s;
    t.vals.(!i) <- v
  end
  else t.vals.(0) <- dummy;
  Obj.obj top

type cell = { mutable value : float }

let pop_min_into t cell =
  if t.size = 0 then invalid_arg "Heap.pop_min: empty heap";
  cell.value <- t.prio.(0);
  pop_min t

let peek t = if t.size = 0 then None else Some (t.prio.(0), Obj.obj t.vals.(0))

let pop t =
  if t.size = 0 then None
  else
    let p = t.prio.(0) in
    Some (p, pop_min t)

let clear t =
  Array.fill t.vals 0 t.size dummy;
  t.size <- 0

let to_sorted_list t =
  let rec drain acc =
    match pop t with None -> List.rev acc | Some pv -> drain (pv :: acc)
  in
  drain []
