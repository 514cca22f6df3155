(** Suzuki-Kasami broadcast token algorithm (TOCS 1985), reference
    [16] of the paper. A requester broadcasts REQUEST(j, n) to every
    node; the token carries the LN vector of last-granted sequence
    numbers and a queue of waiting nodes. N messages per CS when the
    requester does not hold the token, 0 when it does. The paper's
    algorithm is a "reverse" of this scheme: requests go to one
    arbiter instead of everyone. *)

open Dmutex.Types

module Ints = Pvec.Ints

type token = { ln : Ints.t; tq : node_id list }
type message = Request of { j : node_id; sn : int } | Token of token
type timer = |

type state = {
  me : node_id;
  n : int;
  rn : Ints.t;  (* highest request number seen per node *)
  token : token option;
  requesting : bool;
  in_cs : bool;
  pending : int;
}

let name = "suzuki-kasami"

(* No failure model: the original algorithm assumes reliable nodes and
   channels, so injected crashes or losses must fail loudly rather
   than silently measure behaviour the algorithm never claimed. *)
let fault_support = { crash_stop = false; message_loss = false }

let init cfg me =
  let n = cfg.Config.n in
  {
    me;
    n;
    rn = Ints.make n;
    token =
      (if me = cfg.Config.initial_arbiter then
         Some { ln = Ints.make n; tq = [] }
       else None);
    requesting = false;
    in_cs = false;
    pending = 0;
  }

(* A restarted node must not re-create the token it held at start. *)
let rejoin cfg me =
  if cfg.Config.n = 1 then init cfg me
  else if cfg.Config.initial_arbiter = me then
    init { cfg with Config.initial_arbiter = (me + 1) mod cfg.Config.n } me
  else init cfg me

let in_cs st = st.in_cs

(* No shared-mode path: every grant is exclusive. *)
let cs_mode _ = Exclusive
let wants_cs st = st.requesting || st.pending > 0

let rec handle cfg ~now st input =
  match input with
  | Request_cs | Request_shared_cs ->
      if st.requesting || st.in_cs then
        ({ st with pending = st.pending + 1 }, [])
      else begin
        let sn = Ints.get st.rn st.me + 1 in
        let st =
          { st with requesting = true; rn = Ints.set st.rn st.me sn }
        in
        match st.token with
        | Some _ -> ({ st with in_cs = true }, [ Enter_cs ])
        | None -> (st, [ Broadcast (Request { j = st.me; sn }) ])
      end
  | Receive (_, Request { j; sn }) -> begin
      let st = { st with rn = Ints.set st.rn j (max (Ints.get st.rn j) sn) } in
      (* An idle token holder hands the token to an outstanding
         requester immediately. *)
      match st.token with
      | Some tok
        when (not st.in_cs) && (not st.requesting)
             && Ints.get st.rn j = Ints.get tok.ln j + 1 ->
          ({ st with token = None }, [ Send (j, Token tok) ])
      | _ -> (st, [])
    end
  | Receive (_, Token tok) ->
      ({ st with token = Some tok; in_cs = true }, [ Enter_cs ])
  | Cs_done -> begin
      match st.token with
      | None -> (st, []) (* spurious *)
      | Some tok ->
          let ln = Ints.set tok.ln st.me (Ints.get st.rn st.me) in
          (* Append every node with an unserved request, scanning in
             me+1 .. me+n order for fairness (as in the original). The
             newcomers are gathered newest-first and appended once;
             [queued] marks the nodes already in the queue. *)
          let queued = Bytes.make st.n '\000' in
          List.iter (fun j -> Bytes.set queued j '\001') tok.tq;
          let fresh = ref [] in
          for k = 1 to st.n - 1 do
            let j = (st.me + k) mod st.n in
            if Ints.get st.rn j = Ints.get ln j + 1 && Bytes.get queued j = '\000'
            then fresh := j :: !fresh
          done;
          let tq = tok.tq @ List.rev !fresh in
          let st = { st with requesting = false; in_cs = false } in
          let st, effs =
            match tq with
            | j :: rest ->
                ( { st with token = None },
                  [ Send (j, Token { ln; tq = rest }) ] )
            | [] -> ({ st with token = Some { ln; tq = [] } }, [])
          in
          if st.pending > 0 then
            let st, effs' =
              handle cfg ~now { st with pending = st.pending - 1 } Request_cs
            in
            (st, effs @ effs')
          else (st, effs)
    end
  | Timer_fired _ -> (st, [])

let message_kind = function Request _ -> "REQUEST" | Token _ -> "PRIVILEGE"

let pp_message ppf = function
  | Request { j; sn } -> Format.fprintf ppf "REQUEST(%d,%d)" j sn
  | Token t ->
      Format.fprintf ppf "TOKEN[%a]"
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ";")
           Format.pp_print_int)
        t.tq

let pp_state ppf st =
  Format.fprintf ppf "node %d:%s%s%s" st.me
    (if st.token <> None then " TOKEN" else "")
    (if st.requesting then " requesting" else "")
    (if st.in_cs then " IN-CS" else "")
