(** Singhal's dynamic information-structure algorithm (IEEE TPDS
    1992), reference [13] of the paper and the second Figure 6
    comparator. Each node keeps a dynamic request set R_i (whom to
    ask), initialized to the staircase R_i = {0..i}; receivers always
    learn about requesters, a requester that loses a priority tie
    echoes its own REQUEST to the winner, and on leaving the CS a node
    shrinks R_i to itself plus the requests it deferred. Message cost
    therefore adapts to contention: ≈ N/2 exchanges at low load,
    approaching Ricart-Agrawala's 2(N-1) under saturation. *)

open Dmutex.Types

module Bits = Pvec.Bits

type message = Request of { ts : int; j : node_id } | Reply
type timer = |

type state = {
  me : node_id;
  n : int;
  clock : int;
  my_ts : int option;
  awaited : int;  (* replies still awaited *)
  r : Bits.t;  (* request set (me always in) *)
  d : Bits.t;  (* deferred requesters *)
  in_cs : bool;
  pending : int;
}

let name = "singhal-dynamic"

(* No failure model: the original algorithm assumes reliable nodes and
   channels, so injected crashes or losses must fail loudly rather
   than silently measure behaviour the algorithm never claimed. *)
let fault_support = { crash_stop = false; message_loss = false }

let init cfg me =
  let n = cfg.Config.n in
  {
    me;
    n;
    clock = 0;
    my_ts = None;
    awaited = 0;
    r = Bits.prefix n me;  (* staircase *)
    d = Bits.empty n;
    in_cs = false;
    pending = 0;
  }

let rejoin = init

let in_cs st = st.in_cs

(* No shared-mode path: every grant is exclusive. *)
let cs_mode _ = Exclusive
let wants_cs st = st.my_ts <> None || st.pending > 0

let beats (ts, j) (ts', j') = ts < ts' || (ts = ts' && j < j')

let rec handle cfg ~now st input =
  match input with
  | Request_cs | Request_shared_cs ->
      if st.my_ts <> None || st.in_cs then
        ({ st with pending = st.pending + 1 }, [])
      else begin
        let ts = st.clock + 1 in
        let targets = List.filter (fun j -> j <> st.me) (Bits.elements st.r) in
        let st =
          { st with clock = ts; my_ts = Some ts;
            awaited = List.length targets }
        in
        if st.awaited = 0 then ({ st with in_cs = true }, [ Enter_cs ])
        else
          (st, List.map (fun j -> Send (j, Request { ts; j = st.me })) targets)
      end
  | Receive (_, Request { ts; j }) -> begin
      let st = { st with clock = max st.clock ts } in
      if st.in_cs then
        (* Defer until we leave the CS; remember the requester. *)
        ({ st with d = Bits.add st.d j; r = Bits.add st.r j }, [])
      else
        match st.my_ts with
        | Some mine when beats (ts, j) (mine, st.me) ->
            (* The incoming request wins the tie: answer it, and if we
               had not asked j (it was outside R), echo our own REQUEST
               so j also answers us — this is what preserves the
               pairwise-connectivity invariant. *)
            if Bits.mem st.r j then (st, [ Send (j, Reply) ])
            else
              ( { st with r = Bits.add st.r j; awaited = st.awaited + 1 },
                [ Send (j, Reply); Send (j, Request { ts = mine; j = st.me }) ] )
        | Some _ ->
            (* We win: defer the reply. *)
            ({ st with d = Bits.add st.d j; r = Bits.add st.r j }, [])
        | None ->
            (* Idle: answer immediately and learn about j. *)
            ({ st with r = Bits.add st.r j }, [ Send (j, Reply) ])
    end
  | Receive (_, Reply) ->
      let awaited = st.awaited - 1 in
      if awaited = 0 && st.my_ts <> None then
        ({ st with awaited; in_cs = true }, [ Enter_cs ])
      else ({ st with awaited }, [])
  | Cs_done ->
      let effs = List.map (fun j -> Send (j, Reply)) (Bits.elements st.d) in
      (* Shrink the request set to ourselves plus the nodes we know
         are still interested. *)
      let st =
        { st with in_cs = false; my_ts = None; r = Bits.add st.d st.me;
          d = Bits.empty st.n }
      in
      if st.pending > 0 then
        let st, effs' =
          handle cfg ~now { st with pending = st.pending - 1 } Request_cs
        in
        (st, effs @ effs')
      else (st, effs)
  | Timer_fired _ -> (st, [])

let message_kind = function Request _ -> "REQUEST" | Reply -> "REPLY"

let pp_message ppf = function
  | Request { ts; j } -> Format.fprintf ppf "REQUEST(%d,%d)" ts j
  | Reply -> Format.pp_print_string ppf "REPLY"

let pp_state ppf st =
  Format.fprintf ppf "node %d: R={%a} D={%a} awaited=%d%s" st.me
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ",")
       Format.pp_print_int)
    (Bits.elements st.r)
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ",")
       Format.pp_print_int)
    (Bits.elements st.d)
    st.awaited
    (if st.in_cs then " IN-CS" else "")
