type latency =
  | Constant of float
  | Uniform of float * float
  | Exponential of float
  | Per_pair of (int -> int -> float)
  | Lognormal of { median : float; sigma : float }
  | Pareto of { scale : float; shape : float; cap : float }
  | Regions of {
      region_of : int array;
      base : float array array;
      jitter_sigma : float;
    }

let sample rng latency ~src ~dst =
  match latency with
  | Constant d -> d
  | Uniform (lo, hi) -> Rng.range rng lo hi
  | Exponential mean -> Rng.exponential rng ~rate:(1.0 /. mean)
  | Per_pair f -> f src dst
  | Lognormal { median; sigma } -> Rng.lognormal rng ~median ~sigma
  | Pareto { scale; shape; cap } -> Float.min cap (Rng.pareto rng ~scale ~shape)
  | Regions { region_of; base; jitter_sigma } ->
      let b = base.(region_of.(src)).(region_of.(dst)) in
      if jitter_sigma = 0.0 then b
      else b *. Rng.lognormal rng ~median:1.0 ~sigma:jitter_sigma

let regions ~region_of ~base ?(jitter_sigma = 0.0) () =
  let nr = Array.length base in
  Array.iter
    (fun r ->
      if r < 0 || r >= nr then
        invalid_arg "Network.regions: region id out of range")
    region_of;
  Array.iter
    (fun row ->
      if Array.length row <> nr then
        invalid_arg "Network.regions: base matrix must be square")
    base;
  Regions { region_of; base; jitter_sigma }

type verdict = Deliver | Drop | Delay of float

(* One message in flight. Every arrival is an engine event posted to
   the network's one [arrive] function with this record as argument,
   so a message costs the event, this record and the boxed arrival
   time, and no closure. *)
type 'm arrival = { src : int; dst : int; msg : 'm }

type 'm t = {
  engine : Engine.t;
  n : int;
  rng : Rng.t;
  latency : latency;
  mutable handler : (src:int -> dst:int -> 'm -> unit) option;
  mutable loss : float;
  mutable interceptor : (src:int -> dst:int -> 'm -> verdict) option;
  crashed : bool array;
  mutable group_of : int array option; (* partition group per node *)
  mutable sent : int;
  mutable delivered : int;
  mutable dropped : int;
  arrive : 'm arrival -> unit;
}

(* Self-sends are delivered but not counted. *)
let arrive t { src; dst; msg } =
  let counted = src <> dst in
  (* Re-check the destination: it may have crashed in flight. *)
  if t.crashed.(dst) then begin
    if counted then t.dropped <- t.dropped + 1
  end
  else begin
    if counted then t.delivered <- t.delivered + 1;
    match t.handler with
    | Some h -> h ~src ~dst msg
    | None -> failwith "Network: no handler installed"
  end

let create engine ~n ~rng ~latency =
  if n <= 0 then invalid_arg "Network.create: n must be positive";
  let rec t =
    { engine; n; rng; latency; handler = None; loss = 0.0; interceptor = None;
      crashed = Array.make n false; group_of = None;
      sent = 0; delivered = 0; dropped = 0;
      arrive = (fun a -> arrive t a) }
  in
  t

let n t = t.n
let engine t = t.engine
let rng t = t.rng
let set_handler t f = t.handler <- Some f
let set_loss t p = t.loss <- p
let set_interceptor t f = t.interceptor <- Some f
let clear_interceptor t = t.interceptor <- None
let crash t i = t.crashed.(i) <- true
let recover t i = t.crashed.(i) <- false
let is_crashed t i = t.crashed.(i)

let partition t groups =
  let group_of = Array.make t.n (-1) in
  List.iteri
    (fun g members -> List.iter (fun i -> group_of.(i) <- g) members)
    groups;
  t.group_of <- Some group_of

let heal t = t.group_of <- None

let base_delay t ~src ~dst = sample t.rng t.latency ~src ~dst

let severed t ~src ~dst =
  t.crashed.(src) || t.crashed.(dst)
  ||
  match t.group_of with
  | None -> false
  | Some g -> g.(src) <> g.(dst)

(* Inlined into [send] with [Engine.post], so the delay and the
   arrival time stay unboxed up to the heap push. *)
let[@inline] deliver t ~src ~dst ~delay msg =
  ignore (Engine.post t.engine ~delay t.arrive { src; dst; msg })

let send t ~src ~dst msg =
  if src < 0 || src >= t.n || dst < 0 || dst >= t.n then
    invalid_arg "Network.send: node id out of range";
  let counted = src <> dst in
  if counted then t.sent <- t.sent + 1;
  let verdict =
    if severed t ~src ~dst then Drop
    else if t.loss > 0.0 && Rng.uniform t.rng < t.loss then Drop
    else
      match t.interceptor with
      | None -> Deliver
      | Some f -> f ~src ~dst msg
  in
  match verdict with
  | Drop -> if counted then t.dropped <- t.dropped + 1
  | Deliver -> deliver t ~src ~dst ~delay:(base_delay t ~src ~dst) msg
  | Delay d -> deliver t ~src ~dst ~delay:(base_delay t ~src ~dst +. d) msg

let broadcast t ~src msg =
  for dst = 0 to t.n - 1 do
    if dst <> src then send t ~src ~dst msg
  done

let sent t = t.sent
let delivered t = t.delivered
let dropped t = t.dropped

let reset_counters t =
  t.sent <- 0;
  t.delivered <- 0;
  t.dropped <- 0

let reset t =
  t.loss <- 0.0;
  t.interceptor <- None;
  Array.fill t.crashed 0 t.n false;
  t.group_of <- None;
  reset_counters t
