(** Lamport's classic timestamp mutual exclusion algorithm (from the
    papers cited as [4, 5] in the ICDCS'96 reference list, in its
    standard message-passing formulation). Every node maintains a
    local request queue ordered by (timestamp, id); a requester
    broadcasts REQUEST, enters the CS once (a) its own request heads
    its queue and (b) it has heard a later-timestamped message from
    every other node (an ACK suffices), and broadcasts RELEASE on
    exit: 3(N-1) messages per CS.

    Correctness relies on FIFO channels between each pair of nodes —
    true of both our simulated network (deterministic per-pair latency)
    and TCP.

    The request queue is one persistent int vector [ts_of]: j's queued
    request timestamp, or 0 (every timestamp is at least 1). Beside it
    are two counts, [queued] entries and [ahead], those ordered before
    our own request, so the CS entry check is O(1). A saturated start
    floods ~2N² messages, and each step costs one vector update (a
    16-slot chunk and the N/16-slot spine), no per-message tree nodes.
    The state is canonical: equal queue contents give equal [Marshal]
    images, however they were built. *)

open Dmutex.Types

type message =
  | Request of { ts : int; j : node_id }
  | Ack of { ts : int }
  | Release of { ts : int; j : node_id }

type timer = |

module Ints = Pvec.Ints
module Bits = Pvec.Bits

type state = {
  me : node_id;
  n : int;
  clock : int;
  ts_of : Ints.t;  (* j -> its queued request's timestamp, 0 if none *)
  queued : int;  (* queued requests, ours included *)
  ahead : int;
      (* queued (ts, j) ordered before our request; 0 when not
         requesting, so our request heads the queue iff [ahead = 0] *)
  requesting : bool;
  heard : Bits.t;
      (* nodes k <> me heard from with a timestamp above our request's,
         this candidacy; empty when not requesting *)
  heard_count : int;
      (* size of [heard], so the CS entry check is O(1) instead of an
         O(N) count per incoming message *)
  in_cs : bool;
  pending : int;
}

let name = "lamport"

(* No failure model: the original algorithm assumes reliable nodes and
   channels, so injected crashes or losses must fail loudly rather
   than silently measure behaviour the algorithm never claimed. *)
let fault_support = { crash_stop = false; message_loss = false }

let init cfg me =
  {
    me;
    n = cfg.Config.n;
    clock = 0;
    ts_of = Ints.make cfg.Config.n;
    queued = 0;
    ahead = 0;
    requesting = false;
    heard = Bits.empty cfg.Config.n;
    heard_count = 0;
    in_cs = false;
    pending = 0;
  }

let rejoin = init
let in_cs st = st.in_cs

(* No shared-mode path: every grant is exclusive. *)
let cs_mode _ = Exclusive
let wants_cs st = st.requesting || st.pending > 0
let my_ts st = Ints.get st.ts_of st.me

(* Record a timestamp heard from [src]. Entry needs, from every other
   node, a message timestamped above our request: the first such
   message from [src] this candidacy is the one that counts.

   No per-node history is needed for that. [clock] is at least every
   timestamp heard (each receive takes the max), so a new request's
   timestamp [clock + 1] exceeds everything heard before it: at the
   start of a candidacy no node has yet spoken above it, and the
   "highest timestamp heard from [src] crossed my_ts" of the textbook
   formulation is exactly "first message from [src] this candidacy
   with ts > my_ts". *)
let note_heard st src ts =
  if
    st.requesting && src <> st.me && ts > my_ts st
    && not (Bits.mem st.heard src)
  then
    { st with heard = Bits.add st.heard src; heard_count = st.heard_count + 1 }
  else st

(* Whether queue entry (ts, j) is ordered before our request. *)
let before st ts j =
  st.requesting
  &&
  let mine = my_ts st in
  ts < mine || (ts = mine && j < st.me)

(* Queue [j]'s request (FIFO channels guarantee at most one is queued
   per node). *)
let enqueue ts j st =
  {
    st with
    ts_of = Ints.set st.ts_of j ts;
    queued = st.queued + 1;
    ahead = (if before st ts j then st.ahead + 1 else st.ahead);
  }

(* Remove [j]'s queued request, if any. *)
let dequeue j st =
  let ts = Ints.get st.ts_of j in
  if ts = 0 then st
  else
    {
      st with
      ts_of = Ints.set st.ts_of j 0;
      queued = st.queued - 1;
      ahead = (if before st ts j then st.ahead - 1 else st.ahead);
    }

(* CS entry condition: our request heads the queue and every other
   node has spoken since our request's timestamp. *)
let try_enter st =
  if
    st.requesting && (not st.in_cs)
    && st.heard_count = st.n - 1
    && st.ahead = 0
  then ({ st with in_cs = true }, [ Enter_cs ])
  else (st, [])

let rec handle cfg ~now st input =
  match input with
  | Request_cs | Request_shared_cs ->
      if st.requesting || st.in_cs then
        ({ st with pending = st.pending + 1 }, [])
      else begin
        (* [clock] is at least every queued timestamp (see
           [note_heard]), so (clock + 1, me) is ordered after every
           queued request: all of them are ahead of ours. *)
        let ts = st.clock + 1 in
        let st =
          enqueue ts st.me
            { st with clock = ts; requesting = true; ahead = st.queued }
        in
        if st.n = 1 then ({ st with in_cs = true }, [ Enter_cs ])
        else (st, [ Broadcast (Request { ts; j = st.me }) ])
      end
  | Receive (src, Request { ts; j }) ->
      let clock = max st.clock ts + 1 in
      let st = note_heard (enqueue ts j { st with clock }) src ts in
      (* The ACK's timestamp must exceed the request's. *)
      let st, effs = try_enter st in
      (st, Send (src, Ack { ts = clock }) :: effs)
  | Receive (src, Ack { ts }) ->
      let st = note_heard { st with clock = max st.clock ts } src ts in
      try_enter st
  | Receive (src, Release { ts; j }) ->
      let st = note_heard (dequeue j { st with clock = max st.clock ts }) src ts in
      try_enter st
  | Cs_done ->
      let ts = st.clock + 1 in
      let st =
        dequeue st.me
          { st with clock = ts; in_cs = false; requesting = false; ahead = 0;
            heard = Bits.empty st.n; heard_count = 0 }
      in
      let effs =
        if st.n = 1 then [] else [ Broadcast (Release { ts; j = st.me }) ]
      in
      if st.pending > 0 then
        let st, effs' =
          handle cfg ~now { st with pending = st.pending - 1 } Request_cs
        in
        (st, effs @ effs')
      else (st, effs)
  | Timer_fired _ -> (st, [])

let message_kind = function
  | Request _ -> "REQUEST"
  | Ack _ -> "ACK"
  | Release _ -> "RELEASE"

let pp_message ppf = function
  | Request { ts; j } -> Format.fprintf ppf "REQUEST(%d,%d)" ts j
  | Ack { ts } -> Format.fprintf ppf "ACK(%d)" ts
  | Release { ts; j } -> Format.fprintf ppf "RELEASE(%d,%d)" ts j

let pp_state ppf st =
  let queue =
    List.filter_map
      (fun j ->
        let ts = Ints.get st.ts_of j in
        if ts = 0 then None else Some (ts, j))
      (List.init st.n Fun.id)
  in
  Format.fprintf ppf "node %d: clock=%d queue=[%s]%s%s" st.me st.clock
    (String.concat ";"
       (List.map
          (fun (ts, j) -> Printf.sprintf "(%d,%d)" ts j)
          (List.sort compare queue)))
    (if st.requesting then " requesting" else "")
    (if st.in_cs then " IN-CS" else "")
