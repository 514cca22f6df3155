(** Ricart-Agrawala permission-based algorithm (CACM 1981), reference
    [10] of the paper and one of the two Figure 6 comparators. A
    requester broadcasts a timestamped REQUEST and enters the CS after
    collecting a REPLY from every other node: exactly 2(N-1) messages
    per CS at every load. *)

open Dmutex.Types

type message = Request of { ts : int; j : node_id } | Reply
type timer = |

type state = {
  me : node_id;
  n : int;
  clock : int;
  my_ts : int option;  (* timestamp of our outstanding request *)
  replies : int;  (* replies still awaited *)
  deferred : node_id list;  (* newest first *)
  in_cs : bool;
  pending : int;
}

let name = "ricart-agrawala"

(* No failure model: the original algorithm assumes reliable nodes and
   channels, so injected crashes or losses must fail loudly rather
   than silently measure behaviour the algorithm never claimed. *)
let fault_support = { crash_stop = false; message_loss = false }

let init cfg me =
  {
    me;
    n = cfg.Config.n;
    clock = 0;
    my_ts = None;
    replies = 0;
    deferred = [];
    in_cs = false;
    pending = 0;
  }

let rejoin = init

let in_cs st = st.in_cs

(* No shared-mode path: every grant is exclusive. *)
let cs_mode _ = Exclusive
let wants_cs st = st.my_ts <> None || st.pending > 0

(* Lexicographic (timestamp, id) priority: smaller wins. *)
let beats (ts, j) (ts', j') = ts < ts' || (ts = ts' && j < j')

let rec handle cfg ~now st input =
  match input with
  | Request_cs | Request_shared_cs ->
      if st.my_ts <> None || st.in_cs then
        ({ st with pending = st.pending + 1 }, [])
      else begin
        let ts = st.clock + 1 in
        let st =
          { st with clock = ts; my_ts = Some ts; replies = st.n - 1 }
        in
        if st.n = 1 then ({ st with in_cs = true }, [ Enter_cs ])
        else (st, [ Broadcast (Request { ts; j = st.me }) ])
      end
  | Receive (_, Request { ts; j }) ->
      let st = { st with clock = max st.clock ts } in
      let defer =
        st.in_cs
        ||
        match st.my_ts with
        | Some mine -> beats (mine, st.me) (ts, j)
        | None -> false
      in
      if defer then ({ st with deferred = j :: st.deferred }, [])
      else (st, [ Send (j, Reply) ])
  | Receive (_, Reply) ->
      let replies = st.replies - 1 in
      if replies = 0 && st.my_ts <> None then
        ({ st with replies; in_cs = true }, [ Enter_cs ])
      else ({ st with replies }, [])
  | Cs_done ->
      let effs = List.rev_map (fun j -> Send (j, Reply)) st.deferred in
      let st =
        { st with in_cs = false; my_ts = None; deferred = []; replies = 0 }
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
  Format.fprintf ppf "node %d: clock=%d awaiting=%d%s" st.me st.clock
    st.replies
    (if st.in_cs then " IN-CS" else "")
