let jain_fairness xs =
  let n = Array.length xs in
  if n = 0 then 1.0
  else
    let sum = Array.fold_left ( +. ) 0.0 xs in
    let sumsq = Array.fold_left (fun a x -> a +. (x *. x)) 0.0 xs in
    if sumsq = 0.0 then 1.0 else sum *. sum /. (float_of_int n *. sumsq)

let t_table =
  (* Two-sided 95% (i.e. 0.975 quantile) Student-t critical values for
     1..30 degrees of freedom. *)
  [| 12.706; 4.303; 3.182; 2.776; 2.571; 2.447; 2.365; 2.306; 2.262; 2.228;
     2.201; 2.179; 2.160; 2.145; 2.131; 2.120; 2.110; 2.101; 2.093; 2.086;
     2.080; 2.074; 2.069; 2.064; 2.060; 2.056; 2.052; 2.048; 2.045; 2.042 |]

let student_t95 df =
  if df <= 0 then nan else if df <= 30 then t_table.(df - 1) else 1.96

module Tally = struct
  type t = {
    mutable count : int;
    mutable mean : float;
    mutable m2 : float;
    mutable sum : float;
    mutable min : float;
    mutable max : float;
  }

  let create () =
    { count = 0; mean = 0.0; m2 = 0.0; sum = 0.0;
      min = infinity; max = neg_infinity }

  let reset t =
    t.count <- 0;
    t.mean <- 0.0;
    t.m2 <- 0.0;
    t.sum <- 0.0;
    t.min <- infinity;
    t.max <- neg_infinity

  let add t x =
    t.count <- t.count + 1;
    t.sum <- t.sum +. x;
    let delta = x -. t.mean in
    t.mean <- t.mean +. (delta /. float_of_int t.count);
    t.m2 <- t.m2 +. (delta *. (x -. t.mean));
    if x < t.min then t.min <- x;
    if x > t.max then t.max <- x

  let count t = t.count
  let sum t = t.sum
  let mean t = if t.count = 0 then nan else t.mean

  let variance t =
    if t.count < 2 then 0.0 else t.m2 /. float_of_int (t.count - 1)

  let stddev t = sqrt (variance t)
  let min t = t.min
  let max t = t.max

  let ci95_halfwidth t =
    if t.count < 2 then 0.0
    else
      let crit = student_t95 (t.count - 1) in
      crit *. stddev t /. sqrt (float_of_int t.count)

  let merge a b =
    if a.count = 0 then { b with count = b.count }
    else if b.count = 0 then { a with count = a.count }
    else begin
      let n = a.count + b.count in
      let na = float_of_int a.count and nb = float_of_int b.count in
      let delta = b.mean -. a.mean in
      let mean = a.mean +. (delta *. nb /. float_of_int n) in
      let m2 = a.m2 +. b.m2 +. (delta *. delta *. na *. nb /. float_of_int n) in
      { count = n; mean; m2; sum = a.sum +. b.sum;
        min = Float.min a.min b.min; max = Float.max a.max b.max }
    end

  let pp ppf t =
    Format.fprintf ppf "n=%d mean=%.6g +/-%.2g sd=%.4g min=%.4g max=%.4g"
      t.count (mean t) (ci95_halfwidth t) (stddev t) t.min t.max
end

module Window = struct
  type t = {
    data : float array;
    mutable filled : int;
    mutable next : int;
    mutable sum : float;
  }

  let create capacity =
    if capacity <= 0 then invalid_arg "Window.create: capacity must be positive";
    { data = Array.make capacity 0.0; filled = 0; next = 0; sum = 0.0 }

  let add t x =
    let cap = Array.length t.data in
    if t.filled = cap then t.sum <- t.sum -. t.data.(t.next)
    else t.filled <- t.filled + 1;
    t.data.(t.next) <- x;
    t.sum <- t.sum +. x;
    t.next <- (t.next + 1) mod cap

  let count t = t.filled
  let is_full t = t.filled = Array.length t.data
  let mean t = if t.filled = 0 then nan else t.sum /. float_of_int t.filled

  let last t =
    if t.filled = 0 then None
    else
      let cap = Array.length t.data in
      Some t.data.((t.next + cap - 1) mod cap)
end

module Histogram = struct
  type t = {
    lo : float;
    hi : float;
    width : float;
    counts : int array; (* slot 0 = underflow, slot k+1 = overflow *)
    mutable total : int;
  }

  let create ~lo ~hi ~buckets =
    if buckets <= 0 then invalid_arg "Histogram.create: buckets must be positive";
    if hi <= lo then invalid_arg "Histogram.create: hi must exceed lo";
    { lo; hi; width = (hi -. lo) /. float_of_int buckets;
      counts = Array.make (buckets + 2) 0; total = 0 }

  let buckets t = Array.length t.counts - 2

  let slot t x =
    if x < t.lo then 0
    else if x >= t.hi then buckets t + 1
    else 1 + int_of_float ((x -. t.lo) /. t.width)

  let add t x =
    let s = Stdlib.min (slot t x) (buckets t + 1) in
    t.counts.(s) <- t.counts.(s) + 1;
    t.total <- t.total + 1

  let reset t =
    Array.fill t.counts 0 (Array.length t.counts) 0;
    t.total <- 0

  let count t = t.total

  let bucket_bounds t s =
    if s = 0 then (neg_infinity, t.lo)
    else if s = buckets t + 1 then (t.hi, infinity)
    else
      let lo = t.lo +. (float_of_int (s - 1) *. t.width) in
      (lo, lo +. t.width)

  let quantile t q =
    if t.total = 0 then invalid_arg "Histogram.quantile: empty histogram";
    let q = Float.max 0.0 (Float.min 1.0 q) in
    let target = q *. float_of_int t.total in
    let rec scan s acc =
      if s > buckets t + 1 then t.hi
      else
        let acc' = acc + t.counts.(s) in
        if float_of_int acc' >= target && t.counts.(s) > 0 then
          let lo, hi = bucket_bounds t s in
          if Float.is_finite lo && Float.is_finite hi then (lo +. hi) /. 2.0
          else if Float.is_finite lo then lo
          else hi
        else scan (s + 1) acc'
    in
    scan 0 0

  let bucket_counts t =
    List.init (buckets t + 2) (fun s ->
        let lo, hi = bucket_bounds t s in
        (lo, hi, t.counts.(s)))

  let pp ppf t =
    Format.fprintf ppf "@[<v>";
    List.iter
      (fun (lo, hi, c) ->
        if c > 0 then Format.fprintf ppf "[%g, %g): %d@," lo hi c)
      (bucket_counts t);
    Format.fprintf ppf "@]"
end

module Counter = struct
  type t = (string, int ref) Hashtbl.t

  let create () : t = Hashtbl.create 16

  (* [Hashtbl.find] with a [Not_found] handler, not [find_opt]: no
     option per call, so bumping an existing counter allocates
     nothing. *)
  let add t name by =
    match Hashtbl.find t name with
    | r -> r := !r + by
    | exception Not_found -> Hashtbl.add t name (ref by)

  let incr t name = add t name 1

  let get t name =
    match Hashtbl.find t name with r -> !r | exception Not_found -> 0

  (* Zero in place rather than [Hashtbl.reset]: keeps the interned key
     strings and ref cells, so a reused sweep arena allocates nothing. *)
  let reset t = Hashtbl.iter (fun _ r -> r := 0) t

  let to_list t =
    Hashtbl.fold (fun k r acc -> (k, !r) :: acc) t []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)

  let pp ppf t =
    Format.fprintf ppf "@[<v>";
    List.iter (fun (k, v) -> Format.fprintf ppf "%s: %d@," k v) (to_list t);
    Format.fprintf ppf "@]"
end
