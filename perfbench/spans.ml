(* The traced run's recorder: spans kept in memory and written as JSONL
   when the run ends, plus the timing wrappers around the functor
   arguments ([ALGO], [CODEC]) and the [persist] hook through which the
   benchmark observes each layer from the outside.

   Only the traced run installs these wrappers; the run that reports
   end-to-end numbers instantiates the functors with the plain modules.

   A span is [name], [id], [parent], [start], [end]. The spans of one
   grant share the id [<node-or-client>/<lock>/<seq>]; the grant's root
   span has parent [""]. *)

type span = {
  name : string;
  id : string;
  parent : string;
  t0 : float;
  t1 : float;
}

let mu = Mutex.create ()
let spans : span list ref = ref []

let locked f =
  Mutex.lock mu;
  match f () with
  | v ->
      Mutex.unlock mu;
      v
  | exception e ->
      Mutex.unlock mu;
      raise e

let add ?(parent = "grant") ~id name t0 t1 =
  locked (fun () -> spans := { name; id; parent; t0; t1 } :: !spans)

(* Times are written as seconds since [epoch] (the earliest span
   start, in the header), which keeps microseconds in a JSON number. *)
let write_jsonl file ~header =
  let open Dmutex_obs.Json in
  let epoch = List.fold_left (fun acc s -> Float.min acc s.t0) infinity !spans in
  let epoch = if Float.is_finite epoch then epoch else 0.0 in
  let header =
    match header with Obj fields -> Obj (fields @ [ ("epoch", Num epoch) ]) | h -> h
  in
  let oc = open_out file in
  output_string oc (to_string header);
  output_char oc '\n';
  List.iter
    (fun s ->
      output_string oc
        (to_string
           (Obj
              [
                ("name", Str s.name);
                ("id", Str s.id);
                ("parent", Str s.parent);
                ("start", Num (s.t0 -. epoch));
                ("end", Num (s.t1 -. epoch));
              ]));
      output_char oc '\n')
    (List.rev !spans);
  close_out oc

(* Layer totals that cannot be tied to one grant (every protocol step,
   every codec call): counts and summed seconds. *)
type tally = { mutable count : int; mutable secs : float; mutable bytes : int }

let tally () = { count = 0; secs = 0.0; bytes = 0 }
let steps = tally ()
let encodes = tally ()
let decodes = tally ()

let bump t dt bytes =
  locked (fun () ->
      t.count <- t.count + 1;
      t.secs <- t.secs +. dt;
      t.bytes <- t.bytes + bytes)

(* What the wrappers saw of the step a thread is running: enough to
   split a grant's local work into protocol, store and codec time. *)
type step = {
  s0 : float;
  s1 : float;
  me : int;
  mutable encode : float;  (** Codec encode seconds inside the step. *)
  decode : float;  (** The decode that delivered this step's message. *)
  mutable store : float;  (** [persist] return → first effect. *)
}

type thread_state = {
  mutable last_decode : (float * float) option;
  mutable step : step option;
  mutable persisted : float;  (** [persist] returned; 0 once closed. *)
}

let threads : (int, thread_state) Hashtbl.t = Hashtbl.create 16

let me_thread () =
  let id = Thread.id (Thread.self ()) in
  locked (fun () ->
      match Hashtbl.find_opt threads id with
      | Some ts -> ts
      | None ->
          let ts = { last_decode = None; step = None; persisted = 0.0 } in
          Hashtbl.replace threads id ts;
          ts)

(* The store's append + fsync runs between [persist] returning and the
   step's first effect (a codec encode, [on_grant], or the end of the
   public call that ran the step): close that interval. *)
let close_store ts t =
  if ts.persisted > 0.0 then begin
    (match ts.step with
    | Some st -> st.store <- st.store +. (t -. ts.persisted)
    | None -> ());
    ts.persisted <- 0.0
  end

(* Per-node latest request step and CS-entry step, for pairing the
   protocol's view of a grant with the caller's when each node has at
   most one request in flight (the session workload). *)
let last_request : step option array = Array.make 8 None
let last_enter : step option array = Array.make 8 None

module Algo (A : Dmutex.Types.ALGO with type state = Dmutex.Protocol.state) :
  Dmutex.Types.ALGO
    with type state = A.state
     and type message = A.message
     and type timer = A.timer = struct
  include A

  let handle cfg ~now st input =
    let ts = me_thread () in
    let decode =
      match (input, ts.last_decode) with
      | Dmutex.Types.Receive _, Some (d0, d1) ->
          ts.last_decode <- None;
          d1 -. d0
      | _ -> 0.0
    in
    let t0 = Common.now () in
    let ((_, effects) as r) = A.handle cfg ~now st input in
    let t1 = Common.now () in
    bump steps (t1 -. t0) 0;
    let step =
      { s0 = t0; s1 = t1; me = st.Dmutex.Protocol.me; encode = 0.0; decode;
        store = 0.0 }
    in
    ts.step <- Some step;
    ts.persisted <- 0.0;
    let me = step.me in
    (match input with
    | Dmutex.Types.Request_cs | Dmutex.Types.Request_shared_cs ->
        locked (fun () -> last_request.(me) <- Some step)
    | _ -> ());
    if List.exists (function Dmutex.Types.Enter_cs -> true | _ -> false) effects then
      locked (fun () -> last_enter.(me) <- Some step);
    r
end

module Codec (C : Wire.CODEC) : Wire.CODEC with type message = C.message =
struct
  type message = C.message

  let encode m =
    let ts = me_thread () in
    let t0 = Common.now () in
    close_store ts t0;
    let s = C.encode m in
    let t1 = Common.now () in
    bump encodes (t1 -. t0) (String.length s);
    (match ts.step with Some st -> st.encode <- st.encode +. (t1 -. t0) | None -> ());
    s

  let decode s =
    let t0 = Common.now () in
    let m = C.decode s in
    let t1 = Common.now () in
    bump decodes (t1 -. t0) (String.length s);
    (me_thread ()).last_decode <- Some (t0, t1);
    m
end

let persist capture st =
  let v = capture st in
  (me_thread ()).persisted <- Common.now ();
  v

(* The step the calling thread ran last, with its store interval closed
   at [t] (the end of the public call, or the [on_grant] callback). *)
let finish_step t =
  let ts = me_thread () in
  close_store ts t;
  let s = ts.step in
  ts.step <- None;
  s

(* The per-layer figures both live workloads report the same way, from
   the tallies above, the merged registry snapshot and the transport
   counters. *)
let live_layers ~snap ~cs ~req_to_cs ~sent ~flushes ~dropped ~retries =
  let per t scale = t.secs /. float_of_int (max 1 t.count) *. scale in
  [
    ("protocol.step_us", per steps 1e6);
    ("protocol.steps_per_cs", Common.ratio steps.count cs);
    ("protocol.request_to_cs_ms", Common.median req_to_cs);
    ( "protocol.collect_ms",
      1000.0
      *. Common.histo_mean snap ~labels:[ ("phase", "collection") ]
           Dmutex_obs.Names.phase_seconds );
    ("qlist.len_mean", Common.histo_mean snap Dmutex_obs.Names.queue_length);
    ("qlist.read_batch_mean", Common.histo_mean snap Dmutex_obs.Names.read_batch_size);
    ("wire.encode_ns", per encodes 1e9);
    ("wire.decode_ns", per decodes 1e9);
    ("wire.bytes_per_cs", Common.ratio decodes.bytes cs);
    ("transport.frames_per_flush", Common.ratio sent flushes);
    ("transport.frames_per_cs", Common.ratio sent cs);
    ("transport.dropped", float_of_int dropped);
    ("transport.retries", float_of_int retries);
  ]
