(* The model checker itself, and the exhaustive checks it provides for
   small configurations (the paper's Section 2.3 argument,
   mechanized). *)

open Dmutex

let newline = String.make 1 '\n'

let basic_cfg n =
  let base = Basic.config ~n () in
  { base with Types.Config.max_retries = 0 }

let check_ok name (r : Mcheck.Make(Basic).result) =
  match r.violation with
  | None -> ()
  | Some v ->
      Alcotest.failf "%s: %s\n%s" name
        (match v.kind with `Safety -> "safety" | `Deadlock -> "deadlock")
        (String.concat "\n" v.trace)

let test_basic_n2_exhaustive () =
  let module M = Mcheck.Make (Basic) in
  let r = M.run ~requests_per_node:1 (basic_cfg 2) in
  check_ok "n=2 r=1" r;
  Alcotest.(check bool) "exhausted (not truncated)" false r.truncated;
  Alcotest.(check bool) "non-trivial space" true (r.states > 100)

let test_basic_n2_r2_bounded () =
  let module M = Mcheck.Make (Basic) in
  let r = M.run ~max_states:150_000 ~requests_per_node:2 (basic_cfg 2) in
  (match r.violation with
  | None -> ()
  | Some v -> Alcotest.failf "violation: %s" (String.concat "\n" v.trace));
  Alcotest.(check bool) "explored the budget" true (r.states > 100_000)

let test_basic_n3_bounded () =
  let module M = Mcheck.Make (Basic) in
  let r = M.run ~max_states:150_000 ~requests_per_node:1 (basic_cfg 3) in
  match r.violation with
  | None -> ()
  | Some v -> Alcotest.failf "violation: %s" (String.concat "\n" v.trace)

let test_basic_n2_no_timers () =
  (* With deterministic timers off the space is tiny and exhaustible
     even for two requests per node. *)
  let module M = Mcheck.Make (Basic) in
  let r =
    M.run ~fire_timers:true ~requests_per_node:1 (basic_cfg 2)
  in
  check_ok "n=2" r

let test_central_exhaustive () =
  let module M = Mcheck.Make (Baselines.Central_server) in
  let r = M.run ~requests_per_node:2 (Types.Config.default ~n:3) in
  (match r.violation with
  | None -> ()
  | Some v -> Alcotest.failf "violation: %s" (String.concat "\n" v.trace));
  Alcotest.(check bool) "exhausted" false r.truncated

(* The checker keys states by the digest of their marshalled image, so
   a baseline whose state representation is not canonical (equal
   contents, different shape) splits one state into several. These
   ceilings are the exhaustive n=3 state counts of canonical
   representations (Lamport's: the flat request queue; its Set/Map
   queue split the same space into 81,202); a representation change
   may merge states, never split them. *)
let check_states name ~bound states =
  if states > bound then
    Alcotest.failf "%s: %d states, more than the %d of a canonical state"
      name states bound

let test_ricart_exhaustive () =
  let module M = Mcheck.Make (Baselines.Ricart_agrawala) in
  let r = M.run ~requests_per_node:1 (Types.Config.default ~n:3) in
  (match r.violation with
  | None -> ()
  | Some v -> Alcotest.failf "violation: %s" (String.concat "\n" v.trace));
  Alcotest.(check bool) "exhausted" false r.truncated;
  check_states "ricart-agrawala" ~bound:3236 r.states

let test_suzuki_exhaustive () =
  let module M = Mcheck.Make (Baselines.Suzuki_kasami) in
  let r = M.run ~requests_per_node:1 (Types.Config.default ~n:3) in
  match r.violation with
  | None ->
      Alcotest.(check bool) "exhausted" false r.truncated;
      check_states "suzuki-kasami" ~bound:725 r.states
  | Some v -> Alcotest.failf "violation: %s" (String.concat "\n" v.trace)

let test_singhal_exhaustive () =
  let module M = Mcheck.Make (Baselines.Singhal) in
  let r = M.run ~fifo:true ~requests_per_node:1 (Types.Config.default ~n:3) in
  match r.violation with
  | None ->
      Alcotest.(check bool) "exhausted" false r.truncated;
      check_states "singhal" ~bound:417 r.states
  | Some v -> Alcotest.failf "violation: %s" (String.concat newline v.trace)

let test_raymond_exhaustive () =
  let module M = Mcheck.Make (Baselines.Raymond) in
  let r = M.run ~requests_per_node:2 (Types.Config.default ~n:3) in
  match r.violation with
  | None -> Alcotest.(check bool) "exhausted" false r.truncated
  | Some v -> Alcotest.failf "violation: %s" (String.concat "\n" v.trace)

let test_lamport_fifo_exhaustive () =
  (* Lamport's algorithm assumes FIFO channels; under them it is
     exhaustively safe at n=3. *)
  let module M = Mcheck.Make (Baselines.Lamport) in
  let r = M.run ~fifo:true ~requests_per_node:1 (Types.Config.default ~n:3) in
  match r.violation with
  | None ->
      Alcotest.(check bool) "exhausted" false r.truncated;
      check_states "lamport (FIFO)" ~bound:73_529 r.states
  | Some v -> Alcotest.failf "violation: %s" (String.concat newline v.trace)

let test_lamport_needs_fifo () =
  (* ...and without FIFO the checker finds the classic reordering
     violation (an ACK overtaking the REQUEST it acknowledges). *)
  let module M = Mcheck.Make (Baselines.Lamport) in
  let r = M.run ~fifo:false ~requests_per_node:1 (Types.Config.default ~n:3) in
  match r.violation with
  | Some { kind = `Safety; _ } -> ()
  | Some { kind = `Deadlock; _ } -> Alcotest.fail "wrong verdict"
  | None -> Alcotest.fail "expected the FIFO-dependence to be exposed"

let test_basic_fifo_also_ok () =
  (* The paper's algorithm needs no FIFO assumption; checking under
     FIFO (a smaller space) must of course also pass. *)
  let module M = Mcheck.Make (Basic) in
  let r = M.run ~fifo:true ~requests_per_node:1 (basic_cfg 2) in
  check_ok "n=2 fifo" r

let test_maekawa_bounded () =
  let module M = Mcheck.Make (Baselines.Maekawa) in
  let r =
    M.run ~max_states:150_000 ~requests_per_node:1
      (Types.Config.default ~n:3)
  in
  match r.violation with
  | None -> ()
  | Some v -> Alcotest.failf "violation: %s" (String.concat "\n" v.trace)

(* Validate the checker itself: a deliberately broken algorithm in
   which the initial holder grants everyone immediately must be caught
   as a safety violation, and a sulking algorithm that never grants
   must be caught as a deadlock. *)
module Broken_grant_all = struct
  type state = { me : int; in_cs : bool; wanting : bool }
  type message = Go
  type timer = unit

  let name = "broken-grant-all"
  let fault_support = Dmutex.Types.{ crash_stop = true; message_loss = true }
  let init _ me = { me; in_cs = false; wanting = false }
  let rejoin = init

  let handle _ ~now:_ st input =
    match input with
    | Types.Request_cs | Types.Request_shared_cs ->
        (* Everybody may simply enter: blatantly unsafe. *)
        ({ st with in_cs = true; wanting = false }, [ Types.Enter_cs ])
    | Types.Cs_done -> ({ st with in_cs = false }, [])
    | Types.Receive _ | Types.Timer_fired _ -> (st, [])

  let in_cs st = st.in_cs
  let cs_mode _ = Types.Exclusive
  let wants_cs st = st.wanting
  let message_kind Go = "GO"
  let pp_message ppf Go = Format.pp_print_string ppf "GO"
  let pp_state ppf st = Format.fprintf ppf "%d" st.me
end

module Broken_never_grant = struct
  type state = { me : int; wanting : bool }
  type message = Go
  type timer = unit

  let name = "broken-never-grant"
  let fault_support = Dmutex.Types.{ crash_stop = true; message_loss = true }
  let init _ me = { me; wanting = false }
  let rejoin = init

  let handle _ ~now:_ st input =
    match input with
    | Types.Request_cs | Types.Request_shared_cs ->
        ({ st with wanting = true }, [])
    | Types.Cs_done | Types.Receive _ | Types.Timer_fired _ -> (st, [])

  let in_cs _ = false
  let cs_mode _ = Types.Exclusive
  let wants_cs st = st.wanting
  let message_kind Go = "GO"
  let pp_message ppf Go = Format.pp_print_string ppf "GO"
  let pp_state ppf st = Format.fprintf ppf "%d" st.me
end

(* ------------------------------------------------------------------ *)
(* Dynamic membership under the checker. The checker's inputs are CS
   requests, deliveries and timer firings — it cannot inject
   JOIN-REQUEST or LEAVE-REQUEST on its own. These adapters repurpose
   a designated churner node's [Request_cs] budget as membership
   intent, so every interleaving of a view change with requests and
   token hand-offs is explored under the same safety and deadlock
   properties.

   A modelling caveat decides what runs with recovery enabled: the
   checker fires armed timers at any moment (a sound over-
   approximation of real time), but Section 6's safety rests on the
   opposite assumption — an enquiry timeout outlasts any in-flight
   message, so a round that concludes "lost" is never racing a merely
   slow PRIVILEGE. Under the checker's asynchrony a premature
   T_enquiry can mint a second token while the first is still in a
   channel; [test_recovery_needs_timing] pins that artifact on the
   static protocol. The churn scenarios therefore run with recovery
   off (join/leave against live token passing), and
   [Regen_churn] isolates the one regime where regeneration is sound
   under asynchrony: a token that provably never existed, minted at
   most once, racing an excision. *)

(* Node n-1 starts outside the view (a joiner knocking at node 0);
   its injected request fires the knock timer. The members' birth
   view is shrunk accordingly, so admission is a real VIEW-CHANGE. *)
module Join_churn = struct
  include Resilient

  let name = "bc-join-churn"
  let fault_support = Dmutex.Types.{ crash_stop = true; message_loss = true }

  let init cfg me =
    let n = cfg.Types.Config.n in
    if me = n - 1 then Protocol.joiner cfg ~me ~seed:0 ~addr:""
    else
      let base = Protocol.init cfg me in
      { base with
        Protocol.view =
          { Protocol.vnum = 0;
            vmembers =
              List.init (n - 1) (fun i -> { Protocol.mid = i; maddr = "" }) } }

  let rejoin = init

  let handle cfg ~now st input =
    match input with
    | Types.Request_cs
      when st.Protocol.joining
           || not (Protocol.is_member st.Protocol.view st.Protocol.me) ->
        Resilient.handle cfg ~now st (Types.Timer_fired Protocol.T_view)
    | _ -> Resilient.handle cfg ~now st input

  let wants_cs st = (not st.Protocol.joining) && Resilient.wants_cs st
end

(* Node n-1 is a leaver: its first injected request is a genuine CS
   request, every later one announces its own departure — so the
   excision races a request it still has in flight, and (in some
   interleavings) a critical section it is still inside, pinning the
   mid-CS deferral of the token hand-off. *)
module Leave_churn = struct
  include Resilient

  let name = "bc-leave-churn"
  let fault_support = Dmutex.Types.{ crash_stop = true; message_loss = true }

  let handle cfg ~now st input =
    match input with
    | Types.Request_cs
      when st.Protocol.me = cfg.Types.Config.n - 1
           && (Resilient.wants_cs st || st.Protocol.in_cs
              || st.Protocol.next_seq > 0) ->
        Resilient.handle cfg ~now st
          (Types.Receive
             (st.Protocol.me, Protocol.Leave_request st.Protocol.me))
    | _ -> Resilient.handle cfg ~now st input

  (* An excised node's unserved want is not a liveness failure. *)
  let wants_cs st =
    Protocol.is_member st.Protocol.view st.Protocol.me
    && Resilient.wants_cs st
end

(* A regeneration that is sound even under the checker's asynchrony:
   node 0 is the arbiter of a token that never existed (as if its
   custodian died before the model starts), so the single invalidation
   round it runs can only mint the FIRST token — there is no in-flight
   original to race. Node 0's request budget injects the self-WARNING
   that starts the round (honoured regardless of clocks); once a token
   epoch exists, every further recovery trigger is out of model. The
   churner (node n-1) meanwhile requests and then leaves, so the
   excision commit interleaves with the enquiry round, the
   regeneration, and the first dispatches of the minted token. *)
module Regen_churn = struct
  include Resilient

  let name = "bc-regen-churn"
  let fault_support = Dmutex.Types.{ crash_stop = true; message_loss = true }

  let init cfg me =
    let base = Protocol.init cfg me in
    if me = 0 then
      { base with Protocol.token = None; role = Protocol.Await_token [] }
    else base

  let rejoin = init

  let handle cfg ~now st input =
    match input with
    | Types.Request_cs when st.Protocol.me = 0 && st.Protocol.token_epoch = 0
      ->
        Resilient.handle cfg ~now st (Types.Receive (0, Protocol.Warning))
    | Types.Request_cs
      when st.Protocol.me = cfg.Types.Config.n - 1
           && (Resilient.wants_cs st || st.Protocol.in_cs
              || st.Protocol.next_seq > 0) ->
        Resilient.handle cfg ~now st
          (Types.Receive
             (st.Protocol.me, Protocol.Leave_request st.Protocol.me))
    | Types.Timer_fired (Protocol.T_token | Protocol.T_watch | Protocol.T_probe)
      ->
        (st, [])
    | Types.Timer_fired Protocol.T_enquiry
      when st.Protocol.me <> 0 || st.Protocol.token_epoch > 0 ->
        (st, [])
    | _ -> Resilient.handle cfg ~now st input

  let wants_cs st =
    Protocol.is_member st.Protocol.view st.Protocol.me
    && Resilient.wants_cs st
end

(* View changes against live token passing: the recovery machinery is
   configured off, so the explored interleavings are exactly the
   membership ones (knock/propose/ack/commit racing requests,
   dispatches and the token in flight). *)
let churn_cfg n =
  { (Resilient.config ~n ()) with
    Types.Config.max_retries = 2;
    recovery = false }

let regen_cfg n =
  { (Resilient.config ~n ()) with Types.Config.max_retries = 2 }

let test_join_churn_bounded () =
  let module M = Mcheck.Make (Join_churn) in
  let r = M.run ~max_states:120_000 ~requests_per_node:1 (churn_cfg 3) in
  (match r.violation with
  | None -> ()
  | Some v -> Alcotest.failf "violation: %s" (String.concat newline v.trace));
  Alcotest.(check bool) "non-trivial space" true (r.states > 10_000)

let test_leave_churn_bounded () =
  let module M = Mcheck.Make (Leave_churn) in
  let r = M.run ~max_states:120_000 ~requests_per_node:2 (churn_cfg 3) in
  match r.violation with
  | None -> ()
  | Some v -> Alcotest.failf "violation: %s" (String.concat newline v.trace)

let test_regen_churn_bounded () =
  let module M = Mcheck.Make (Regen_churn) in
  let r = M.run ~max_states:120_000 ~requests_per_node:2 (regen_cfg 3) in
  match r.violation with
  | None -> ()
  | Some v -> Alcotest.failf "violation: %s" (String.concat newline v.trace)

let test_join_churn_random () =
  let module M = Mcheck.Make (Join_churn) in
  let r =
    M.run_random ~walks:300 ~depth:300 ~requests_per_node:1 (churn_cfg 3)
  in
  match r.violation with
  | None -> ()
  | Some v -> Alcotest.failf "violation: %s" (String.concat newline v.trace)

let test_leave_churn_random () =
  let module M = Mcheck.Make (Leave_churn) in
  let r =
    M.run_random ~walks:300 ~depth:300 ~requests_per_node:2 (churn_cfg 3)
  in
  match r.violation with
  | None -> ()
  | Some v -> Alcotest.failf "violation: %s" (String.concat newline v.trace)

let test_regen_churn_random () =
  let module M = Mcheck.Make (Regen_churn) in
  let r =
    M.run_random ~walks:300 ~depth:300 ~requests_per_node:2 (regen_cfg 3)
  in
  match r.violation with
  | None -> ()
  | Some v -> Alcotest.failf "violation: %s" (String.concat newline v.trace)

let test_recovery_needs_timing () =
  (* Pin the modelling caveat: under unrestricted asynchrony the
     walker finds the interleaving where an enquiry round concludes
     "lost" by timeout while the PRIVILEGE is merely slow, minting a
     second token — two CS entries. Real deployments exclude this by
     the Section 6 timing assumption (timeouts exceed message delay),
     which the checker deliberately does not encode. Static
     membership: the hole predates churn and is not widened by it. *)
  let module M = Mcheck.Make (Resilient) in
  let r =
    M.run_random ~walks:2000 ~depth:300 ~requests_per_node:2 (regen_cfg 3)
  in
  match r.violation with
  | Some { kind = `Safety; _ } -> ()
  | Some { kind = `Deadlock; trace } ->
      Alcotest.failf "unexpected deadlock: %s" (String.concat newline trace)
  | None ->
      Alcotest.fail
        "expected the asynchronous-regeneration artifact to be reachable"

let test_random_walks_basic () =
  (* Monte-Carlo exploration of a configuration too big to exhaust. *)
  let module M = Mcheck.Make (Basic) in
  let r =
    M.run_random ~walks:300 ~depth:300 ~requests_per_node:2 (basic_cfg 4)
  in
  (match r.violation with
  | None -> ()
  | Some v -> Alcotest.failf "violation: %s" (String.concat "
" v.trace));
  Alcotest.(check bool) "explored states" true (r.states > 1_000)

let test_random_walks_monitored () =
  (* The monitored variant needs the retransmission timer for liveness
     (it drops over-τ requests and the monitor escape hatch relies on
     broadcasts that a quiescent system stops producing); a bounded
     retry budget keeps the walker's reachable space finite. *)
  let module M = Mcheck.Make (Monitored) in
  let cfg =
    { (Monitored.config ~n:3 ()) with Types.Config.max_retries = 2 }
  in
  let r = M.run_random ~walks:300 ~depth:300 ~requests_per_node:2 cfg in
  match r.violation with
  | None -> ()
  | Some v -> Alcotest.failf "violation: %s" (String.concat newline v.trace)

let test_monitored_without_retries_starves () =
  (* Pin the hole: with retries disabled, the walker finds the
     quiescent-starvation deadlock (a dropped over-τ request whose
     owner never sees another broadcast). This is the behaviour the
     paper's Section 4.1 leaves to 'appropriate timeouts'. *)
  let module M = Mcheck.Make (Monitored) in
  let cfg =
    { (Monitored.config ~n:3 ()) with Types.Config.max_retries = 0 }
  in
  let r = M.run_random ~walks:2000 ~depth:300 ~requests_per_node:2 cfg in
  match r.violation with
  | Some { kind = `Deadlock; _ } -> ()
  | Some { kind = `Safety; trace } ->
      Alcotest.failf "unexpected safety violation: %s"
        (String.concat newline trace)
  | None ->
      Alcotest.fail
        "expected the known starvation deadlock to be reachable"

let test_detects_safety_violation () =
  let module M = Mcheck.Make (Broken_grant_all) in
  let r = M.run ~requests_per_node:1 (Types.Config.default ~n:2) in
  match r.violation with
  | Some { kind = `Safety; _ } -> ()
  | Some { kind = `Deadlock; _ } -> Alcotest.fail "wrong verdict"
  | None -> Alcotest.fail "missed an obvious violation"

let test_random_walks_find_planted_bug () =
  (* The random walker must also catch the planted violation. *)
  let module M = Mcheck.Make (Broken_grant_all) in
  let r =
    M.run_random ~walks:200 ~depth:50 ~requests_per_node:1
      (Types.Config.default ~n:2)
  in
  (match r.violation with
  | Some { kind = `Safety; _ } -> ()
  | _ -> Alcotest.fail "random walker missed the planted violation");
  ()

let test_rw_shared_exhaustive () =
  (* Read-write safety, mechanized: one shared and one exclusive
     request per node at n=2. The checker's overlap predicate allows
     concurrent holders only when every one reports [Shared], so the
     reader-batch machinery is explored against exactly the paper-level
     invariant it must preserve. *)
  let module M = Mcheck.Make (Prioritized) in
  let cfg =
    { (Prioritized.rw_config ~n:2 ()) with Types.Config.max_retries = 0 }
  in
  let r =
    M.run ~max_states:400_000 ~requests_per_node:1 ~shared_per_node:1 cfg
  in
  (match r.violation with
  | None -> ()
  | Some v ->
      Alcotest.failf "rw violation (%s):\n%s"
        (match v.kind with `Safety -> "safety" | `Deadlock -> "deadlock")
        (String.concat newline v.trace));
  Alcotest.(check bool) "non-trivial space" true (r.states > 1_000)

let test_rw_all_shared_exhaustive () =
  (* Pure readers: every request shared, so every grant should batch;
     still no deadlock and no illegal overlap flagged. *)
  let module M = Mcheck.Make (Prioritized) in
  let cfg =
    { (Prioritized.rw_config ~n:3 ()) with Types.Config.max_retries = 0 }
  in
  let r =
    M.run ~max_states:400_000 ~requests_per_node:0 ~shared_per_node:1 cfg
  in
  match r.violation with
  | None -> ()
  | Some v ->
      Alcotest.failf "all-shared violation:\n%s" (String.concat newline v.trace)

let test_detects_deadlock () =
  let module M = Mcheck.Make (Broken_never_grant) in
  let r = M.run ~requests_per_node:1 (Types.Config.default ~n:2) in
  match r.violation with
  | Some { kind = `Deadlock; trace } ->
      Alcotest.(check bool) "trace nonempty" true (trace <> [])
  | Some { kind = `Safety; _ } -> Alcotest.fail "wrong verdict"
  | None -> Alcotest.fail "missed an obvious deadlock"

let suite =
  ( "mcheck",
    [
      Alcotest.test_case "basic n=2 exhaustive" `Quick test_basic_n2_exhaustive;
      Alcotest.test_case "basic n=2 two requests (bounded)" `Slow
        test_basic_n2_r2_bounded;
      Alcotest.test_case "basic n=3 (bounded)" `Slow test_basic_n3_bounded;
      Alcotest.test_case "basic n=2 (timers)" `Quick test_basic_n2_no_timers;
      Alcotest.test_case "central n=3 exhaustive" `Quick
        test_central_exhaustive;
      Alcotest.test_case "ricart-agrawala n=3 exhaustive" `Quick
        test_ricart_exhaustive;
      Alcotest.test_case "suzuki-kasami n=3 exhaustive" `Quick
        test_suzuki_exhaustive;
      Alcotest.test_case "singhal n=3 exhaustive (FIFO)" `Quick
        test_singhal_exhaustive;
      Alcotest.test_case "raymond n=3 exhaustive" `Slow
        test_raymond_exhaustive;
      Alcotest.test_case "maekawa n=3 (bounded)" `Slow test_maekawa_bounded;
      Alcotest.test_case "lamport n=3 exhaustive (FIFO)" `Quick
        test_lamport_fifo_exhaustive;
      Alcotest.test_case "lamport unsafe without FIFO" `Quick
        test_lamport_needs_fifo;
      Alcotest.test_case "basic n=2 under FIFO" `Quick
        test_basic_fifo_also_ok;
      Alcotest.test_case "join churn n=3 (bounded)" `Slow
        test_join_churn_bounded;
      Alcotest.test_case "leave churn n=3 (bounded)" `Slow
        test_leave_churn_bounded;
      Alcotest.test_case "regeneration vs excision n=3 (bounded)" `Slow
        test_regen_churn_bounded;
      Alcotest.test_case "random walks: join churn" `Slow
        test_join_churn_random;
      Alcotest.test_case "random walks: leave churn" `Slow
        test_leave_churn_random;
      Alcotest.test_case "random walks: regeneration vs excision" `Slow
        test_regen_churn_random;
      Alcotest.test_case "recovery needs the timing assumption (pinned)"
        `Slow test_recovery_needs_timing;
      Alcotest.test_case "random walks: basic n=4" `Slow
        test_random_walks_basic;
      Alcotest.test_case "random walks: monitored n=3" `Slow
        test_random_walks_monitored;
      Alcotest.test_case "monitored needs retries (pinned hole)" `Slow
        test_monitored_without_retries_starves;
      Alcotest.test_case "random walks find planted bug" `Quick
        test_random_walks_find_planted_bug;
      Alcotest.test_case "checker finds planted violation" `Quick
        test_detects_safety_violation;
      Alcotest.test_case "checker finds planted deadlock" `Quick
        test_detects_deadlock;
      Alcotest.test_case "rw: shared+exclusive n=2 (bounded)" `Slow
        test_rw_shared_exhaustive;
      Alcotest.test_case "rw: all-shared n=3 (bounded)" `Slow
        test_rw_all_shared_exhaustive;
    ] )
