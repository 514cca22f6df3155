let src_log = Logs.Src.create "netkit.node" ~doc:"protocol node runner"

module Log = (val Logs.src_log src_log)

module Make
    (A : Dmutex.Types.ALGO)
    (C : Wire.CODEC with type message = A.message) =
struct
  open Dmutex.Types

  let default_lock = "default"

  (* One protocol instance: the pure state machine for one lock key
     plus everything that must be private to it — its mutex, its
     grant condition, its durable store, its lock-labelled metrics.
     Instances share the node's transport, timer wheel and liveness
     monitor. *)
  type inst = {
    key : string;
    mutable state : A.state;
    lock : Mutex.t;
    granted : Condition.t;
    pm : Dmutex_obs.Protocol_metrics.t option;
    store : Dmutex_store.Store.t option;
    notes : (string, int) Hashtbl.t;
    mutable waiters : int;  (** threads blocked in [with_lock]. *)
    async_pending : (A.state -> bool) Queue.t;
        (** The [granted] callbacks of [acquire] calls whose grant has
            not landed yet, oldest first. *)
  }

  type t = {
    cfg : Config.t;
    me : int;
    persist : (A.state -> Dmutex_store.Store.view) option;
    (* The instance registry is fixed at [create], before the
       transport starts delivering frames, so lookups are lock-free. *)
    insts : (string, inst) Hashtbl.t;
    lock_order : string list;  (** registry keys in creation order. *)
    mutable transport : Transport.t option;
    obs_reg : Dmutex_obs.Registry.t option;
    trace : Dmutex_obs.Events.sink option;
    suspicions : Dmutex_obs.Registry.Counter.handle option;
    (* One shared timer wheel for the whole node: [(lock, timer)] ->
       absolute wall-clock deadline, guarded by [wheel_mu], drained by
       a single sleeping thread regardless of how many instances the
       node hosts. Lock order is instance mutex -> wheel mutex, never
       the reverse. *)
    wheel : (string * A.timer, float) Hashtbl.t;
    wheel_mu : Mutex.t;
    (* [with_lock] timeout deadlines, also guarded by [wheel_mu] and
       drained by the timer thread: waiters sleep on their instance's
       grant condition (no polling) and the wheel broadcasts it when a
       deadline passes so they can observe the timeout. *)
    waiter_wheel : (int, float * string) Hashtbl.t;
    mutable waiter_seq : int;
    (* self-pipe waking the timer thread out of its deadline sleep
       whenever the timer set changes *)
    wake_rd : Unix.file_descr;
    mutable wake_wr : Unix.file_descr option;
    mutable stopping : bool;
    on_grant : lock:string -> unit;
    on_suspect : int -> unit;
    on_alive : int -> unit;
    suspect_timeout : float;
    mutable last_heard : float array;  (** guarded by [live_mu]; grows. *)
    mutable suspect : bool array;  (** guarded by [live_mu]; grows. *)
    (* Per-lock committed member sets [(id, addr)]; addr is "" for
       birth members (their endpoints came with the transport).
       Guarded by [live_mu]. The liveness monitor only watches ids in
       the union across locks, and the frame path drops senders
       outside it (see the unknown-peer guard in [on_frame]). *)
    memberships : (string, (int * string) list) Hashtbl.t;
    unknown_peer : Dmutex_obs.Registry.Counter.handle option;
    live_mu : Mutex.t;
    start : float;
  }

  let now t = Unix.gettimeofday () -. t.start

  let trace_emit t ?inst ?severity name fields =
    match t.trace with
    | None -> ()
    | Some sink ->
        let fields =
          match inst with
          | Some i -> ("lock", i.key) :: fields
          | None -> fields
        in
        Dmutex_obs.Events.emit sink ?severity
          ~fields:(("node", string_of_int t.me) :: fields)
          name

  (* Must be called with [t.wheel_mu] held. *)
  let wake_timer_thread t =
    match t.wake_wr with
    | None -> ()
    | Some fd -> (
        try ignore (Unix.write fd (Bytes.make 1 '!') 0 1)
        with Unix.Unix_error _ -> ())

  (* Must be called with [t.live_mu] held. *)
  let ensure_live_slot t i =
    let len = Array.length t.last_heard in
    if i >= len then begin
      let lh = Array.make (i + 1) (Unix.gettimeofday ()) in
      Array.blit t.last_heard 0 lh 0 len;
      t.last_heard <- lh;
      let su = Array.make (i + 1) false in
      Array.blit t.suspect 0 su 0 len;
      t.suspect <- su
    end

  (* Must be called with [t.live_mu] held. *)
  let member_union_locked t =
    Hashtbl.fold
      (fun _ members acc ->
        List.fold_left
          (fun acc (i, _) -> if List.mem i acc then acc else i :: acc)
          acc members)
      t.memberships []

  (* A committed view landed for [inst] (or a restart/idle kick
     re-announced the current one): re-point the transport peer set
     and the liveness monitor, and publish the view through obs.
     Called with [inst.lock] held; takes [live_mu] inside (lock order
     instance -> live, same as [heard]). *)
  let apply_membership t inst ~vepoch members =
    Mutex.lock t.live_mu;
    let before = member_union_locked t in
    Hashtbl.replace t.memberships inst.key members;
    let after = member_union_locked t in
    let added = List.filter (fun i -> not (List.mem i before)) after in
    let removed = List.filter (fun i -> not (List.mem i after)) before in
    List.iter (fun i -> ensure_live_slot t i) after;
    (* Cancel/re-arm suspect deadlines across the change: a
       just-removed node must not trigger a spurious recovery round,
       and a joiner gets a full [suspect_timeout] of grace before it
       can be suspected. *)
    let now_abs = Unix.gettimeofday () in
    List.iter
      (fun i ->
        t.suspect.(i) <- false;
        t.last_heard.(i) <- now_abs)
      (added @ removed);
    Mutex.unlock t.live_mu;
    (match t.transport with
    | Some tr ->
        (* Retire a peer only once NO instance on this node still has
           it as a member — the transport is shared across locks. *)
        List.iter
          (fun i -> if i <> t.me then Transport.retire_peer tr ~dst:i)
          removed;
        (* Views record an address only for members that joined after
           birth; birth members keep the endpoints the transport was
           created with. *)
        List.iter
          (fun (i, addr) ->
            if i <> t.me && addr <> "" then
              let bad () =
                Log.warn (fun m ->
                    m "node %d: bad member address %S for peer %d" t.me addr i)
              in
              match String.rindex_opt addr ':' with
              | None -> bad ()
              | Some k -> (
                  let host = String.sub addr 0 k in
                  match
                    int_of_string_opt
                      (String.sub addr (k + 1) (String.length addr - k - 1))
                  with
                  | Some port when port > 0 && port <= 0xFFFF ->
                      Transport.add_peer tr ~dst:i ~host ~port
                  | Some _ | None -> bad ()))
          members
    | None -> ());
    (match t.obs_reg with
    | Some reg ->
        let labels = Dmutex_obs.Names.lock_label inst.key in
        Dmutex_obs.Registry.Gauge.set
          (Dmutex_obs.Registry.Gauge.get reg ~labels Dmutex_obs.Names.view_epoch)
          (float_of_int vepoch);
        Dmutex_obs.Registry.Gauge.set
          (Dmutex_obs.Registry.Gauge.get reg ~labels
             Dmutex_obs.Names.member_count)
          (float_of_int (List.length members))
    | None -> ());
    trace_emit t ~inst "membership.view"
      [
        ("vepoch", string_of_int vepoch);
        ( "members",
          String.concat ","
            (List.map (fun (i, _) -> string_of_int i) members) );
      ]

  (* Apply effects under [inst.lock]. *)
  let rec apply t inst = function
    | Send (dst, m) ->
        (match inst.pm with
        | Some pm when dst <> t.me ->
            Dmutex_obs.Protocol_metrics.sent pm ~kind:(A.message_kind m)
        | Some _ | None -> ());
        (match t.transport with
        | Some tr -> ignore (Transport.send tr ~dst ~lock:inst.key (C.encode m))
        | None -> ())
    | Broadcast m ->
        (match inst.pm with
        | Some pm ->
            Dmutex_obs.Protocol_metrics.sent_many pm
              ~kind:(A.message_kind m)
              (t.cfg.Config.n - 1)
        | None -> ());
        (match t.transport with
        | Some tr -> ignore (Transport.broadcast tr ~lock:inst.key (C.encode m))
        | None -> ())
    | Enter_cs ->
        (match inst.pm with
        | Some pm -> Dmutex_obs.Protocol_metrics.cs_entered pm ~now:(now t)
        | None -> ());
        trace_emit t ~inst "cs.enter" [];
        if inst.waiters = 0 && not (Queue.is_empty inst.async_pending)
        then begin
          (* A fire-and-forget [acquire]: its callback keeps the CS
             held for the caller to [release], or declines it. *)
          if not ((Queue.pop inst.async_pending) inst.state) then
            step_locked t inst Cs_done
        end
        else if inst.waiters = 0 then begin
          (* No caller is waiting: either a [with_lock] gave up on this
             request, or a recovery re-granted one already satisfied.
             Either way, holding it would freeze the token here
             forever — release immediately so it moves on. *)
          Log.debug (fun m ->
              m "node %d: draining stale grant for %S" t.me inst.key);
          step_locked t inst Cs_done
        end
        else begin
          Condition.broadcast inst.granted;
          t.on_grant ~lock:inst.key
        end
    | Set_timer (k, d) ->
        Mutex.lock t.wheel_mu;
        Hashtbl.replace t.wheel (inst.key, k)
          (Unix.gettimeofday () +. Float.max d 0.0);
        wake_timer_thread t;
        Mutex.unlock t.wheel_mu
    | Cancel_timer k ->
        Mutex.lock t.wheel_mu;
        Hashtbl.remove t.wheel (inst.key, k);
        wake_timer_thread t;
        Mutex.unlock t.wheel_mu
    | Note n ->
        let name = string_of_note n in
        Hashtbl.replace inst.notes name
          (1 + Option.value ~default:0 (Hashtbl.find_opt inst.notes name));
        (match inst.pm with
        | Some pm -> (
            Dmutex_obs.Protocol_metrics.note pm name;
            match n with
            | Queue_length k -> Dmutex_obs.Protocol_metrics.queue_length pm k
            | Read_batch k -> Dmutex_obs.Protocol_metrics.read_batch pm k
            | Phase (p, d) -> Dmutex_obs.Protocol_metrics.phase pm ~name:p d
            | _ -> ())
        | None -> ());
        (match n with
        | Recovery_started | Token_regenerated | Arbiter_takeover ->
            trace_emit t ~inst ~severity:Dmutex_obs.Events.Warn
              ("recovery." ^ name) []
        | Became_arbiter -> trace_emit t ~inst "protocol.became-arbiter" []
        | Membership { vepoch; members } ->
            apply_membership t inst ~vepoch members
        | _ -> ());
        Log.debug (fun m -> m "node %d: [%s] %s" t.me inst.key name)

  and step_locked t inst input =
    (match input with
    | Request_cs | Request_shared_cs -> (
        match inst.pm with
        | Some pm -> Dmutex_obs.Protocol_metrics.mark_request pm ~now:(now t)
        | None -> ())
    | Cs_done ->
        (match inst.pm with
        | Some pm -> Dmutex_obs.Protocol_metrics.cs_exited pm ~now:(now t)
        | None -> ());
        trace_emit t ~inst "cs.exit" []
    | Receive _ | Timer_fired _ -> ());
    let state', effects = A.handle t.cfg ~now:(now t) inst.state input in
    inst.state <- state';
    (* Persist the post-step view BEFORE applying any effect: the
       fsync returns before a PRIVILEGE can reach the socket or the CS
       is entered, so the durable custody record never over-claims —
       see the durability discipline in [Dmutex_store.Store]. *)
    (match (inst.store, t.persist) with
    | Some store, Some persist ->
        Dmutex_store.Store.record store (persist state')
    | _ -> ());
    (* Cork the transport around the whole effect list so every frame
       this step emits — REQUEST broadcasts, token forwards, grants —
       coalesces into one flush per destination peer. *)
    match t.transport with
    | Some tr when effects <> [] ->
        Transport.cork tr;
        Fun.protect
          ~finally:(fun () -> Transport.uncork tr)
          (fun () -> List.iter (apply t inst) effects)
    | Some _ | None -> List.iter (apply t inst) effects

  let step t inst input =
    Mutex.lock inst.lock;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock inst.lock)
      (fun () -> step_locked t inst input)

  (* Earliest-deadline sleeping: block in [select] on the wake pipe
     until the next timer across every instance is due (or a
     [Set_timer] / [Cancel_timer] pokes the pipe), instead of polling
     every millisecond. One thread serves the whole registry. The
     250 ms cap is a safety net only. *)
  let timer_loop t =
    let buf = Bytes.create 64 in
    while not t.stopping do
      let now_abs = Unix.gettimeofday () in
      Mutex.lock t.wheel_mu;
      let due =
        Hashtbl.fold
          (fun k deadline acc -> if deadline <= now_abs then k :: acc else acc)
          t.wheel []
      in
      Mutex.unlock t.wheel_mu;
      List.iter
        (fun ((lk, k) as wk) ->
          match Hashtbl.find_opt t.insts lk with
          | None ->
              Mutex.lock t.wheel_mu;
              Hashtbl.remove t.wheel wk;
              Mutex.unlock t.wheel_mu
          | Some inst ->
              Mutex.lock inst.lock;
              (* Re-check under the wheel mutex: a step for an earlier
                 timer may have cancelled or re-armed this one while
                 neither mutex was held. *)
              Mutex.lock t.wheel_mu;
              let still_due =
                match Hashtbl.find_opt t.wheel wk with
                | Some deadline when deadline <= Unix.gettimeofday () ->
                    Hashtbl.remove t.wheel wk;
                    true
                | Some _ | None -> false
              in
              Mutex.unlock t.wheel_mu;
              if still_due then step_locked t inst (Timer_fired k);
              Mutex.unlock inst.lock)
        due;
      (* Expired [with_lock] deadlines: wake the sleeping waiters so
         they can observe the timeout. The waiter removes its own
         entry; dropping it here too just saves a redundant wake. *)
      Mutex.lock t.wheel_mu;
      let lapsed =
        Hashtbl.fold
          (fun id (deadline, lk) acc ->
            if deadline <= now_abs then (id, lk) :: acc else acc)
          t.waiter_wheel []
      in
      List.iter (fun (id, _) -> Hashtbl.remove t.waiter_wheel id) lapsed;
      Mutex.unlock t.wheel_mu;
      List.iter
        (fun (_, lk) ->
          match Hashtbl.find_opt t.insts lk with
          | None -> ()
          | Some inst ->
              Mutex.lock inst.lock;
              Condition.broadcast inst.granted;
              Mutex.unlock inst.lock)
        lapsed;
      Mutex.lock t.wheel_mu;
      let next =
        Hashtbl.fold
          (fun _ deadline acc ->
            match acc with
            | None -> Some deadline
            | Some d -> Some (Float.min d deadline))
          t.wheel None
      in
      let next =
        Hashtbl.fold
          (fun _ (deadline, _) acc ->
            match acc with
            | None -> Some deadline
            | Some d -> Some (Float.min d deadline))
          t.waiter_wheel next
      in
      Mutex.unlock t.wheel_mu;
      let timeout =
        match next with
        | None -> 0.25
        | Some deadline ->
            Float.max 0.0002 (Float.min 0.25 (deadline -. Unix.gettimeofday ()))
      in
      match Unix.select [ t.wake_rd ] [] [] timeout with
      | [ fd ], _, _ -> ( try ignore (Unix.read fd buf 0 64) with _ -> ())
      | _ -> ()
      | exception Unix.Unix_error _ -> ()
    done;
    Mutex.lock t.wheel_mu;
    (match t.wake_wr with
    | Some fd ->
        (try Unix.close fd with _ -> ());
        t.wake_wr <- None
    | None -> ());
    (try Unix.close t.wake_rd with _ -> ());
    Mutex.unlock t.wheel_mu

  let heard t src =
    if src >= 0 && src <= 0xFFFF then begin
      Mutex.lock t.live_mu;
      ensure_live_slot t src;
      t.last_heard.(src) <- Unix.gettimeofday ();
      let recovered = t.suspect.(src) in
      t.suspect.(src) <- false;
      Mutex.unlock t.live_mu;
      if recovered then begin
        Log.debug (fun m -> m "node %d: peer %d alive again" t.me src);
        t.on_alive src
      end
    end

  (* Declares a peer suspect after [suspect_timeout] of silence; any
     frame (data or heartbeat, for any lock) counts as life — liveness
     is a property of the connection, shared by every instance. *)
  let liveness_loop t =
    let period = Float.max 0.01 (t.suspect_timeout /. 4.0) in
    while not t.stopping do
      Thread.delay period;
      if not t.stopping then begin
        let now_abs = Unix.gettimeofday () in
        let newly = ref [] in
        Mutex.lock t.live_mu;
        (* Only current members can be suspected: a node excised by a
           view change falls silent by design and must not re-enter
           the recovery machinery through this path. *)
        let union = member_union_locked t in
        Array.iteri
          (fun i last ->
            if
              i <> t.me
              && List.mem i union
              && (not t.suspect.(i))
              && now_abs -. last > t.suspect_timeout
            then begin
              t.suspect.(i) <- true;
              newly := i :: !newly
            end)
          t.last_heard;
        Mutex.unlock t.live_mu;
        List.iter
          (fun i ->
            Log.debug (fun m -> m "node %d: peer %d suspected down" t.me i);
            (match t.suspicions with
            | Some c -> Dmutex_obs.Registry.Counter.incr c
            | None -> ());
            trace_emit t ~severity:Dmutex_obs.Events.Warn "liveness.suspect"
              [ ("peer", string_of_int i) ];
            t.on_suspect i)
          !newly
      end
    done

  let find_inst t lock =
    match Hashtbl.find_opt t.insts lock with
    | Some i -> i
    | None ->
        invalid_arg
          (Printf.sprintf "Node_runner: no instance for lock key %S" lock)

  let create ?(on_grant = fun ~lock:_ -> ()) ?fault ?heartbeat_period
      ?(suspect_timeout = 1.0) ?(on_suspect = fun _ -> ())
      ?(on_alive = fun _ -> ()) ?seed ?(locks = [ default_lock ]) ?initial
      ?store ?persist ?obs ?trace ?flush_us ?io_domains cfg ~me ~peers () =
    if locks = [] then
      invalid_arg "Node_runner.create: at least one lock key required";
    let wake_rd, wake_wr = Unix.pipe () in
    Unix.set_nonblock wake_wr;
    let insts = Hashtbl.create (List.length locks) in
    List.iter
      (fun key ->
        if Hashtbl.mem insts key then
          invalid_arg
            (Printf.sprintf "Node_runner.create: duplicate lock key %S" key);
        let pm =
          Option.map
            (fun reg ->
              Dmutex_obs.Protocol_metrics.create
                ~labels:(Dmutex_obs.Names.lock_label key)
                reg)
            obs
        in
        let state =
          match Option.bind initial (fun f -> f ~lock:key) with
          | Some s -> s
          | None -> A.init cfg me
        in
        let store = Option.bind store (fun f -> f ~lock:key) in
        Hashtbl.add insts key
          {
            key;
            state;
            lock = Mutex.create ();
            granted = Condition.create ();
            pm;
            store;
            notes = Hashtbl.create 16;
            waiters = 0;
            async_pending = Queue.create ();
          })
      locks;
    let t =
      {
        cfg;
        me;
        persist;
        insts;
        lock_order = locks;
        transport = None;
        obs_reg = obs;
        trace;
        suspicions =
          Option.map
            (fun reg ->
              Dmutex_obs.Registry.Counter.get reg
                Dmutex_obs.Names.suspicions_total)
            obs;
        wheel = Hashtbl.create 16;
        wheel_mu = Mutex.create ();
        waiter_wheel = Hashtbl.create 16;
        waiter_seq = 0;
        wake_rd;
        wake_wr = Some wake_wr;
        stopping = false;
        on_grant;
        on_suspect;
        on_alive;
        suspect_timeout;
        last_heard = Array.make (Array.length peers) (Unix.gettimeofday ());
        suspect = Array.make (Array.length peers) false;
        memberships =
          (* Until a committed view says otherwise, everyone we were
             given an endpoint for is a member (the birth cluster, or
             — for a joiner — the current members it was pointed at).
             The first [Membership] note replaces this. *)
          (let tbl = Hashtbl.create (List.length locks) in
           let all = List.init (Array.length peers) (fun i -> (i, "")) in
           List.iter (fun key -> Hashtbl.replace tbl key all) locks;
           tbl);
        unknown_peer =
          Option.map
            (fun reg ->
              Dmutex_obs.Registry.Counter.get reg
                Dmutex_obs.Names.unknown_peer_total)
            obs;
        live_mu = Mutex.create ();
        start = Unix.gettimeofday ();
      }
    in
    (* Make every starting view durable immediately: a node that
       crashes before its first step must restart from this state, not
       as an amnesiac. *)
    (match persist with
    | Some p ->
        Hashtbl.iter
          (fun _ inst ->
            match inst.store with
            | Some s -> Dmutex_store.Store.record s (p inst.state)
            | None -> ())
          insts
    | None -> ());
    let on_frame ~src ~lock payload =
      heard t src;
      match Hashtbl.find_opt t.insts lock with
      | None ->
          Log.warn (fun f ->
              f "node %d: dropping frame for unknown lock %S from %d" me lock
                src)
      | Some inst -> (
          match C.decode payload with
          | m ->
              let kind = A.message_kind m in
              (* Unknown-peer guard: a sender outside this lock's
                 member set is either excised (its in-flight frames
                 must not reach the protocol) or a joiner knocking —
                 membership traffic and a PRIVILEGE hand-off to an
                 heir are the only frames allowed through. *)
              let is_member =
                Mutex.lock t.live_mu;
                let r =
                  match Hashtbl.find_opt t.memberships inst.key with
                  | None -> true
                  | Some members -> List.mem_assoc src members
                in
                Mutex.unlock t.live_mu;
                r
              in
              let membership_traffic =
                match kind with
                | "JOIN-REQUEST" | "LEAVE-REQUEST" | "VIEW-CHANGE"
                | "VIEW-ACK" | "PRIVILEGE" ->
                    true
                | _ -> false
              in
              if (not is_member) && not membership_traffic then begin
                (match t.unknown_peer with
                | Some c -> Dmutex_obs.Registry.Counter.incr c
                | None -> ());
                Log.debug (fun f ->
                    f "node %d: dropping %s from non-member %d for %S" me
                      kind src lock)
              end
              else begin
                (match inst.pm with
                | Some pm -> Dmutex_obs.Protocol_metrics.received pm ~kind
                | None -> ());
                step t inst (Receive (src, m))
              end
          | exception Wire.Malformed msg ->
              Log.warn (fun f ->
                  f "node %d: dropping bad frame from %d: %s" me src msg))
    in
    let on_heartbeat ~src = heard t src in
    t.transport <-
      Some
        (Transport.create ?fault ?heartbeat_period ?seed ?obs ?flush_us
           ?io_domains ~on_heartbeat ~me ~peers ~on_frame ());
    ignore (Thread.create timer_loop t);
    (match heartbeat_period with
    | Some p when p > 0.0 -> ignore (Thread.create liveness_loop t)
    | _ -> ());
    t

  let id t = t.me
  let locks t = t.lock_order

  let request_input mode =
    match mode with
    | Dmutex.Types.Exclusive -> Request_cs
    | Dmutex.Types.Shared -> Request_shared_cs

  let acquire ?(lock = default_lock) ?(mode = Dmutex.Types.Exclusive) ?granted
      t =
    let inst = find_inst t lock in
    let granted =
      Option.value granted ~default:(fun _ ->
          t.on_grant ~lock;
          true)
    in
    Mutex.lock inst.lock;
    Queue.push granted inst.async_pending;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock inst.lock)
      (fun () -> step_locked t inst (request_input mode))

  let release ?(lock = default_lock) t = step t (find_inst t lock) Cs_done

  let holding ?(lock = default_lock) t =
    let inst = find_inst t lock in
    Mutex.lock inst.lock;
    let h = A.in_cs inst.state in
    Mutex.unlock inst.lock;
    h

  (* Blocking request-and-wait shared by [with_lock] and
     [acquire_all]: returns [true] holding the CS of [lock] (the
     caller must [release]) or [false] once [deadline] lapses or the
     node is stopping. *)
  let request_and_wait ?(mode = Dmutex.Types.Exclusive) t ~lock ~deadline =
    let inst = find_inst t lock in
    (* OCaml's Condition has no timed wait: register the deadline with
       the node's timer thread, which broadcasts [inst.granted] when it
       lapses, and sleep on the condition in between — the grant path
       wakes us in microseconds instead of a poll interval. *)
    let wid =
      Mutex.lock t.wheel_mu;
      let wid = t.waiter_seq in
      t.waiter_seq <- wid + 1;
      Hashtbl.replace t.waiter_wheel wid (deadline, lock);
      wake_timer_thread t;
      Mutex.unlock t.wheel_mu;
      wid
    in
    Mutex.lock inst.lock;
    inst.waiters <- inst.waiters + 1;
    (try step_locked t inst (request_input mode)
     with e ->
       inst.waiters <- inst.waiters - 1;
       Mutex.unlock inst.lock;
       Mutex.lock t.wheel_mu;
       Hashtbl.remove t.waiter_wheel wid;
       Mutex.unlock t.wheel_mu;
       raise e);
    let rec wait () =
      if A.in_cs inst.state then true
      else if Unix.gettimeofday () >= deadline then false
      else if t.stopping then false
      else begin
        Condition.wait inst.granted inst.lock;
        wait ()
      end
    in
    let ok = wait () in
    Mutex.lock t.wheel_mu;
    Hashtbl.remove t.waiter_wheel wid;
    Mutex.unlock t.wheel_mu;
    inst.waiters <- inst.waiters - 1;
    (* On timeout the REQUEST is already queued cluster-wide; with no
       caller waiting, its grant is drained when it lands (see
       [Enter_cs] in [apply]). *)
    Mutex.unlock inst.lock;
    ok

  let with_lock ?(timeout = 30.0) ?(lock = default_lock)
      ?(mode = Dmutex.Types.Exclusive) t f =
    let deadline = Unix.gettimeofday () +. timeout in
    if request_and_wait ~mode t ~lock ~deadline then
      Fun.protect ~finally:(fun () -> release ~lock t) (fun () -> Some (f ()))
    else None

  (* Canonical transaction order: locks sorted by key. Every
     transaction acquiring in one global order makes hold-and-wait
     acyclic, so transactions cannot deadlock each other; the bounded
     per-attempt slice plus release-on-conflict retry below keeps a
     slow grant from convoying the whole set. *)
  let sort_lock_set locks =
    if locks = [] then invalid_arg "Node_runner.acquire_all: empty lock set";
    let sorted =
      List.stable_sort (fun (a, _) (b, _) -> String.compare a b) locks
    in
    let rec check = function
      | (a, _) :: ((b, _) :: _ as rest) ->
          if String.equal a b then
            invalid_arg
              (Printf.sprintf "Node_runner.acquire_all: duplicate lock %S" a);
          check rest
      | _ -> ()
    in
    check sorted;
    sorted

  let release_all_sorted t sorted =
    List.iter (fun (l, _) -> release ~lock:l t) (List.rev sorted)

  let acquire_all_sorted t ~deadline ~retries sorted =
    let slice =
      Float.max 0.01
        ((deadline -. Unix.gettimeofday ()) /. float_of_int (retries + 1))
    in
    let rec attempt k =
      let sub = Float.min deadline (Unix.gettimeofday () +. slice) in
      let rec grab held = function
        | [] -> Ok ()
        | (l, m) :: rest ->
            if request_and_wait ~mode:m t ~lock:l ~deadline:sub then
              grab ((l, m) :: held) rest
            else Error held
      in
      match grab [] sorted with
      | Ok () -> true
      | Error held ->
          (* All-or-nothing: give back everything grabbed this attempt
             (newest first) before retrying, so a transaction never
             camps on a partial set while waiting for the rest. *)
          List.iter (fun (l, _) -> release ~lock:l t) held;
          if k >= retries || Unix.gettimeofday () >= deadline then false
          else attempt (k + 1)
    in
    attempt 0

  let acquire_all ?(timeout = 30.0) ?(retries = 4) ~locks t =
    let sorted = sort_lock_set locks in
    (* Fail fast on a key this node does not host. *)
    List.iter (fun (l, _) -> ignore (find_inst t l)) sorted;
    let deadline = Unix.gettimeofday () +. timeout in
    acquire_all_sorted t ~deadline ~retries sorted

  let with_locks ?(timeout = 30.0) ?(retries = 4) ~locks t f =
    let sorted = sort_lock_set locks in
    List.iter (fun (l, _) -> ignore (find_inst t l)) sorted;
    let deadline = Unix.gettimeofday () +. timeout in
    if acquire_all_sorted t ~deadline ~retries sorted then
      Fun.protect
        ~finally:(fun () -> release_all_sorted t sorted)
        (fun () -> Some (f ()))
    else None

  let state ?(lock = default_lock) t =
    let inst = find_inst t lock in
    Mutex.lock inst.lock;
    let s = inst.state in
    Mutex.unlock inst.lock;
    s

  let messages_sent t =
    match t.transport with Some tr -> Transport.sent tr | None -> 0

  let metrics t =
    match t.transport with
    | Some tr -> Transport.metrics tr
    | None ->
        {
          Transport.sent = 0;
          delivered = 0;
          dropped = 0;
          retries = 0;
          reconnects = 0;
          flushes = 0;
          queue_depth = 0;
        }

  let inst_notes inst acc =
    Mutex.lock inst.lock;
    let acc =
      Hashtbl.fold
        (fun k v acc ->
          let prev = Option.value ~default:0 (List.assoc_opt k acc) in
          (k, prev + v) :: List.remove_assoc k acc)
        inst.notes acc
    in
    Mutex.unlock inst.lock;
    acc

  let notes ?lock t =
    let merged =
      match lock with
      | Some l -> inst_notes (find_inst t l) []
      | None -> Hashtbl.fold (fun _ inst acc -> inst_notes inst acc) t.insts []
    in
    List.sort compare merged

  let note_count ?lock t name =
    let count inst acc =
      Mutex.lock inst.lock;
      let v = Option.value ~default:0 (Hashtbl.find_opt inst.notes name) in
      Mutex.unlock inst.lock;
      acc + v
    in
    match lock with
    | Some l -> count (find_inst t l) 0
    | None -> Hashtbl.fold (fun _ inst acc -> count inst acc) t.insts 0

  let membership ?(lock = default_lock) t =
    Mutex.lock t.live_mu;
    let m = Option.value ~default:[] (Hashtbl.find_opt t.memberships lock) in
    Mutex.unlock t.live_mu;
    m

  let suspected t =
    Mutex.lock t.live_mu;
    let l = ref [] in
    Array.iteri (fun i s -> if s then l := i :: !l) t.suspect;
    Mutex.unlock t.live_mu;
    List.rev !l

  let set_loss t p =
    match t.transport with
    | Some tr -> Transport.set_loss tr p
    | None -> ()

  let inject ?(lock = default_lock) t input = step t (find_inst t lock) input

  let store_stats ?(lock = default_lock) t =
    Option.map Dmutex_store.Store.stats (find_inst t lock).store

  let obs t = t.obs_reg

  let stop_threads_and_transport t =
    if not t.stopping then begin
      t.stopping <- true;
      Mutex.lock t.wheel_mu;
      wake_timer_thread t;
      Mutex.unlock t.wheel_mu;
      (* Waiters sleep on their grant condition now; wake them all so
         none outlives the node blocked on a grant that can no longer
         arrive. *)
      Hashtbl.iter
        (fun _ inst ->
          Mutex.lock inst.lock;
          Condition.broadcast inst.granted;
          Mutex.unlock inst.lock)
        t.insts;
      match t.transport with
      | Some tr ->
          t.transport <- None;
          Transport.close tr
      | None -> ()
    end

  let iter_stores t f =
    Hashtbl.iter
      (fun _ inst -> match inst.store with Some s -> f s | None -> ())
      t.insts

  let shutdown t =
    stop_threads_and_transport t;
    iter_stores t Dmutex_store.Store.close

  let crash t =
    stop_threads_and_transport t;
    iter_stores t Dmutex_store.Store.abort
end
