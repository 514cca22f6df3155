module Obs = Dmutex_obs

let src_log = Logs.Src.create "netkit.session" ~doc:"client session service"

module Log = (val Logs.src_log src_log)

(* How often the loop looks for lapsed leases and waiter deadlines. *)
let sweep_period = 0.05

(* Connections beyond [max_sessions]: room for resumes and probes
   racing the connection they replace. *)
let conn_slack = 16

(* [Unix.select] fails with EINVAL on a descriptor at or past
   FD_SETSIZE, which would stop the loop. *)
let select_limit = 1024

(* A descriptor's number; on Unix [Unix.file_descr] is the int. *)
let fd_index (fd : Unix.file_descr) : int = Obj.magic fd

module Make
    (A : Dmutex.Types.ALGO)
    (C : Wire.CODEC with type message = A.message) =
struct
  module Node = Node_runner.Make (A) (C)
  module WC = Wire.Client

  (* Everything below is owned by the server's event loop and written
     only from it; [stats], [sessions] and [last_fencing] read single
     fields from other threads. *)

  type conn = {
    fd : Unix.file_descr;
    st : Session_frame.stream;
    mutable attached : session option;
    mutable c_open : bool;  (** false once closed *)
  }

  and session = {
    sid : string;
    s_lease_ms : int;
    mutable sconn : conn option;  (** [None] while detached. *)
    mutable s_deadline : float;
        (** Lease deadline while attached; grace deadline once
            detached. The sweep expires the session past it. *)
    mutable s_held : (string * int) list;  (** lock -> fencing token *)
    mutable s_inflight : int;  (** queued acquires, all locks *)
  }

  type waiter = {
    w_rid : int;
    w_sess : session;
    w_mode : Dmutex.Types.mode;
        (** Shared waiters at the head of the queue are granted
            together under one node hold; exclusive ones alone. *)
    w_deadline : float;
    mutable w_pending : bool;
        (** false once granted, timed out or cancelled; only pending
            waiters belong to a live, attached session. *)
  }

  type lockq = {
    lq_lock : string;
    mutable lq_waiters : waiter list;  (** FIFO, head served first *)
    mutable lq_requests : int;  (** node requests not granted yet *)
    mutable lq_horizon : float;
        (** The latest deadline among the waiters the last request was
            made for; past it, with waiters left, the sweep asks
            again. *)
    mutable lq_holders : session list;
        (** Sessions the node holds the CS for; the node releases it
            when the last one leaves. *)
    mutable lq_last_fencing : int;
    lq_grants : Obs.Registry.Counter.handle option;
    lq_fencing : Obs.Registry.Gauge.handle option;
    lq_depth : Obs.Registry.Gauge.handle option;
  }

  type stats = {
    opened : int;
    resumed : int;
    expired : int;
    granted : int;
    rejected : int;
    stale_grants : int;
  }

  type t = {
    node : Node.t;
    fencing : A.state -> int option;
    lease_ms : int;
    grace_ms : int;
    max_sessions : int;
    max_waiters : int;
    max_inflight : int;
    loop : Reactor.t;
    mutable thread : Thread.t option;
    closed : bool Atomic.t;
    sessions : (string, session) Hashtbl.t;
    locks : (string, lockq) Hashtbl.t;
    conns : (Unix.file_descr, conn) Hashtbl.t;
    rng : Random.State.t;
    sock : Unix.file_descr;
    port : int;
    mutable next_sweep : float;
    mutable accept_paused : bool;  (** out of descriptors; see [accept_all] *)
    mutable counts : stats;  (** mirrored into [obs] when present *)
    obs : Obs.Registry.t option;
    g_sessions : Obs.Registry.Gauge.handle option;
    c_opened : Obs.Registry.Counter.handle option;
    c_resumes : Obs.Registry.Counter.handle option;
    c_expiries : Obs.Registry.Counter.handle option;
    c_stale : Obs.Registry.Counter.handle option;
    trace : Obs.Events.sink option;
  }

  let trace t ?(severity = Obs.Events.Info) name fields =
    match t.trace with
    | None -> ()
    | Some sink -> Obs.Events.emit sink ~severity ~fields name

  let incr_counter = function
    | None -> ()
    | Some h -> Obs.Registry.Counter.incr h

  let set_gauge g v = match g with
    | None -> ()
    | Some h -> Obs.Registry.Gauge.set h v

  let now () = Unix.gettimeofday ()

  (* One failing protocol step (say, a store that can no longer fsync)
     must not take the loop, and with it every session, down. *)
  let guarded what f =
    try f ()
    with e ->
      Log.err (fun m -> m "session %s failed: %s" what (Printexc.to_string e))

  (* ---------------------------------------------------------------- *)
  (* Connections *)

  (* Cancel every queued acquire of [s] (session closing, expiring or
     detaching). The waiters stay in their lock queues — the grant and
     the sweep skip non-pending entries — they just stop being eligible
     for a grant. *)
  let cancel_waiters t s =
    Hashtbl.iter
      (fun _ lq ->
        List.iter
          (fun w -> if w.w_sess == s && w.w_pending then w.w_pending <- false)
          lq.lq_waiters)
      t.locks;
    s.s_inflight <- 0

  (* A connection died (EOF, error, or we closed it). Detach its
     session: the session survives until the grace deadline so the
     client can fail over and resume by sid; its queued acquires are
     cancelled (the client re-issues them after resuming), and its
     held grants stay held — release still belongs to the client until
     the lease/grace runs out. *)
  let detach t s =
    cancel_waiters t s;
    s.sconn <- None;
    s.s_deadline <- now () +. (float_of_int t.grace_ms /. 1000.);
    trace t "session.detach" [ ("sid", s.sid) ]

  let drop_conn t c =
    if c.c_open then begin
      c.c_open <- false;
      Reactor.remove t.loop c.fd;
      Hashtbl.remove t.conns c.fd;
      (try Unix.close c.fd with Unix.Unix_error _ -> ());
      match c.attached with
      | Some s ->
          c.attached <- None;
          detach t s
      | None -> ()
    end

  (* Write what the socket takes now and leave the rest for the loop.
     A client that lets more than a frame's worth of replies pile up
     is not reading: it is cut off (and its session detached) rather
     than buffered without bound. *)
  let flush_conn t c =
    match Session_frame.flush c.st with
    | exception Unix.Unix_error _ -> drop_conn t c
    | pending when pending > Session_frame.max_frame ->
        trace t ~severity:Obs.Events.Warn "session.slow_reader"
          [ ("pending", string_of_int pending) ];
        drop_conn t c
    | pending -> Reactor.modify t.loop c.fd ~read:true ~write:(pending > 0)

  let send_resp t c resp =
    if c.c_open then begin
      Session_frame.output c.st (WC.encode_response resp);
      flush_conn t c
    end

  (* ---------------------------------------------------------------- *)
  (* Session registry *)

  let fresh_sid t =
    let b = Buffer.create 32 in
    for _ = 0 to 3 do
      Buffer.add_string b (Printf.sprintf "%08x" (Random.State.bits t.rng))
    done;
    Buffer.contents b

  let count_rejection t reason =
    t.counts <- { t.counts with rejected = t.counts.rejected + 1 };
    (match t.obs with
    | Some reg ->
        Obs.Registry.Counter.incr
          (Obs.Registry.Counter.get reg
             ~labels:(Obs.Names.reason_label (WC.string_of_reason reason))
             Obs.Names.client_rejections_total)
    | None -> ());
    trace t ~severity:Obs.Events.Warn "session.reject"
      [ ("reason", WC.string_of_reason reason) ]

  let reject t c ~rid reason ~retry_after_ms =
    count_rejection t reason;
    send_resp t c (WC.Rejected { rid; reason; retry_after_ms })

  (* A queued acquire passed its deadline: an explicit timeout. *)
  let time_out t w =
    w.w_pending <- false;
    let s = w.w_sess in
    s.s_inflight <- max 0 (s.s_inflight - 1);
    match s.sconn with
    | Some c -> reject t c ~rid:w.w_rid WC.Lock_timeout ~retry_after_ms:0
    | None -> ()

  (* ---------------------------------------------------------------- *)
  (* Grants: one node request per lock at a time. It is issued for the
     head waiter's mode when the lock has pending waiters and no
     holders; its grant callback posts the post-grant state here, where
     the next batch is served under that grant, and the node releases
     when the batch's last holder leaves. A request still ungranted
     when every waiter it was made for has timed out is made once more
     for the waiters that came since; whichever grant lands with nobody
     left to serve is released at once. *)

  (* Pop the run of waiters one node hold can serve in [mode]:
     exclusive — just the oldest eligible waiter; shared — the maximal
     leading run of shared waiters, stopping at the first eligible
     exclusive waiter so writers keep their queue position (the
     session-layer mirror of the protocol's reader batch). Expired
     waiters met on the way are rejected with [Lock_timeout]. *)
  let pop_batch t lq ~mode =
    let t_now = now () in
    let rec go acc = function
      | [] -> (List.rev acc, [])
      | w :: rest ->
          if not w.w_pending then go acc rest
          else if t_now > w.w_deadline then begin
            time_out t w;
            go acc rest
          end
          else begin
            match (mode : Dmutex.Types.mode) with
            | Exclusive -> (List.rev (w :: acc), rest)
            | Shared ->
                if w.w_mode = Dmutex.Types.Shared then go (w :: acc) rest
                else (List.rev acc, w :: rest)
          end
    in
    let batch, rest = go [] lq.lq_waiters in
    lq.lq_waiters <- rest;
    set_gauge lq.lq_depth (float_of_int (List.length rest));
    batch

  let set_horizon lq =
    lq.lq_horizon <-
      List.fold_left
        (fun acc w -> if w.w_pending then Float.max acc w.w_deadline else acc)
        0. lq.lq_waiters

  let rec request t lq =
    if lq.lq_holders = [] && not (Atomic.get t.closed) then
      match List.find_opt (fun w -> w.w_pending) lq.lq_waiters with
      | None -> ()
      | Some w ->
          (* A shared head pulls its whole run of fellow readers in
             with it, an exclusive head is served alone. *)
          let mode = w.w_mode in
          lq.lq_requests <- lq.lq_requests + 1;
          set_horizon lq;
          Node.acquire ~lock:lq.lq_lock ~mode t.node ~granted:(fun st ->
              (* On the thread that ran the step, under the node's
                 instance mutex: hand the grant to the loop. Once shut
                 down, decline it and the node drains it in place. *)
              if Atomic.get t.closed then false
              else begin
                Reactor.post t.loop (fun () ->
                    guarded "grant" (fun () -> on_granted t lq mode st));
                true
              end)

  and maybe_request t lq = if lq.lq_requests = 0 then request t lq

  and release_node t lq =
    Node.release ~lock:lq.lq_lock t.node;
    maybe_request t lq

  (* The node entered [lq]'s CS in [mode] with post-grant state [st].
     Serve the next batch under it, or give it straight back. In
     [Shared] mode the whole leading run of shared waiters is granted
     together under one fencing token — shared holders are peers, not
     an order, exactly as in the protocol's reader batch. *)
  and on_granted t lq mode st =
    lq.lq_requests <- lq.lq_requests - 1;
    (* A request still to come now stands for the waiters left. *)
    if lq.lq_requests > 0 then set_horizon lq;
    let stale severity name fields =
      t.counts <- { t.counts with stale_grants = t.counts.stale_grants + 1 };
      incr_counter t.c_stale;
      trace t ~severity name (("lock", lq.lq_lock) :: fields);
      false
    in
    let served =
      match t.fencing st with
      | _ when Atomic.get t.closed -> false
      | None ->
          (* Not a genuine first-time grant (e.g. a recovery re-granted
             an already-served request): issuing a fencing token here
             could repeat a value, so drop the grant and retry. *)
          stale Obs.Events.Warn "session.stale_grant" []
      | Some fencing when fencing <= lq.lq_last_fencing ->
          (* Defence in depth: never let a non-increasing token out. *)
          stale Obs.Events.Error "session.fencing_regression"
            [
              ("fencing", string_of_int fencing);
              ("last", string_of_int lq.lq_last_fencing);
            ]
      | Some fencing -> (
          match pop_batch t lq ~mode with
          | [] -> false (* nobody still wants it; release right away *)
          | batch ->
              lq.lq_last_fencing <- fencing;
              let mode_label =
                match mode with
                | Dmutex.Types.Shared -> "shared"
                | Dmutex.Types.Exclusive -> "exclusive"
              in
              List.iter
                (fun w ->
                  let s = w.w_sess in
                  w.w_pending <- false;
                  s.s_inflight <- max 0 (s.s_inflight - 1);
                  s.s_held <- (lq.lq_lock, fencing) :: s.s_held;
                  t.counts <- { t.counts with granted = t.counts.granted + 1 };
                  incr_counter lq.lq_grants;
                  set_gauge lq.lq_fencing (float_of_int fencing);
                  trace t "session.grant"
                    [
                      ("sid", s.sid);
                      ("lock", lq.lq_lock);
                      ("fencing", string_of_int fencing);
                      ("mode", mode_label);
                    ];
                  match s.sconn with
                  | Some c ->
                      send_resp t c
                        (WC.Granted
                           { rid = w.w_rid; lock = lq.lq_lock; fencing })
                  | None -> ())
                batch;
              lq.lq_holders <- List.map (fun w -> w.w_sess) batch;
              true)
    in
    if not served then release_node t lq

  (* [s] no longer holds [lock] (release, close or expiry). *)
  let leave t s lock =
    let lq = Hashtbl.find t.locks lock in
    if List.memq s lq.lq_holders then begin
      lq.lq_holders <- List.filter (fun h -> h != s) lq.lq_holders;
      if lq.lq_holders = [] then release_node t lq
    end

  (* The session is over: its grants go back to the node and its
     queued acquires are cancelled. *)
  let end_session t s =
    s.sconn <- None;
    cancel_waiters t s;
    let held = s.s_held in
    s.s_held <- [];
    Hashtbl.remove t.sessions s.sid;
    set_gauge t.g_sessions (float_of_int (Hashtbl.length t.sessions));
    List.iter (fun (lock, _) -> leave t s lock) held

  (* Expire a session: lease ran out (attached: the client stalled;
     detached: the grace window closed) or the node is shutting down.
     The fencing token the client still has is stale by construction
     once the node releases the grant. *)
  let expire_session t s ~reason =
    if Hashtbl.mem t.sessions s.sid then begin
      let conn = s.sconn in
      end_session t s;
      t.counts <- { t.counts with expired = t.counts.expired + 1 };
      incr_counter t.c_expiries;
      trace t ~severity:Obs.Events.Warn "session.expire"
        [ ("sid", s.sid); ("reason", reason) ];
      match conn with
      | None -> ()
      | Some c ->
          send_resp t c (WC.Session_lost { rid = 0; reason });
          drop_conn t c
    end

  (* ---------------------------------------------------------------- *)
  (* Request dispatch *)

  let renew_lease s =
    s.s_deadline <- now () +. (float_of_int s.s_lease_ms /. 1000.)

  let opened t c ~rid s ~resumed =
    c.attached <- Some s;
    send_resp t c
      (WC.Session_opened
         {
           rid;
           sid = s.sid;
           lease_ms = s.s_lease_ms;
           grace_ms = t.grace_ms;
           resumed;
           held = s.s_held;
         })

  let handle_open t c ~rid ~lease_ms ~resume =
    let lease_ms = if lease_ms <= 0 then t.lease_ms else lease_ms in
    match resume with
    | Some sid -> (
        match Hashtbl.find_opt t.sessions sid with
        | Some s ->
            (match s.sconn with
            | Some old when old != c -> drop_conn t old
            | _ -> ());
            s.sconn <- Some c;
            renew_lease s;
            t.counts <- { t.counts with resumed = t.counts.resumed + 1 };
            incr_counter t.c_resumes;
            trace t "session.resume" [ ("sid", s.sid) ];
            opened t c ~rid s ~resumed:true
        | None ->
            send_resp t c
              (WC.Session_lost
                 { rid; reason = "unknown or expired session " ^ sid }))
    | None ->
        if Hashtbl.length t.sessions < t.max_sessions then begin
          let s =
            {
              sid = fresh_sid t;
              s_lease_ms = lease_ms;
              sconn = Some c;
              s_deadline = now () +. (float_of_int lease_ms /. 1000.);
              s_held = [];
              s_inflight = 0;
            }
          in
          Hashtbl.replace t.sessions s.sid s;
          t.counts <- { t.counts with opened = t.counts.opened + 1 };
          set_gauge t.g_sessions (float_of_int (Hashtbl.length t.sessions));
          incr_counter t.c_opened;
          trace t "session.open" [ ("sid", s.sid) ];
          opened t c ~rid s ~resumed:false
        end
        else
          (* Admission control: shed load with an explicit retry-after
             instead of queueing unboundedly. *)
          reject t c ~rid WC.Session_limit ~retry_after_ms:(t.lease_ms / 2)

  let handle_acquire t c s ~rid ~lock ~timeout_ms ~try_only ~shared =
    renew_lease s;
    match Hashtbl.find_opt t.locks lock with
    | None -> reject t c ~rid WC.Unknown_lock ~retry_after_ms:0
    | Some _ when List.mem_assoc lock s.s_held ->
        reject t c ~rid WC.Already_held ~retry_after_ms:0
    | Some _ when s.s_inflight >= t.max_inflight ->
        reject t c ~rid WC.Queue_full ~retry_after_ms:(t.lease_ms / 4)
    | Some lq ->
        let depth =
          List.length (List.filter (fun w -> w.w_pending) lq.lq_waiters)
        in
        if depth >= t.max_waiters then
          reject t c ~rid WC.Queue_full ~retry_after_ms:(t.lease_ms / 4)
        else begin
          let timeout_ms =
            if timeout_ms > 0 then timeout_ms else if try_only then 1_000
            else 30_000
          in
          let w =
            {
              w_rid = rid;
              w_sess = s;
              w_mode =
                (if shared then Dmutex.Types.Shared else Dmutex.Types.Exclusive);
              w_deadline = now () +. (float_of_int timeout_ms /. 1000.);
              w_pending = true;
            }
          in
          lq.lq_waiters <- lq.lq_waiters @ [ w ];
          set_gauge lq.lq_depth (float_of_int (depth + 1));
          s.s_inflight <- s.s_inflight + 1;
          maybe_request t lq
        end

  (* Replies go out before the node releases, so the client is not
     kept waiting on the protocol step. *)
  let handle_release t c s ~rid ~lock =
    renew_lease s;
    if List.mem_assoc lock s.s_held then begin
      s.s_held <- List.remove_assoc lock s.s_held;
      send_resp t c (WC.Released { rid; lock });
      leave t s lock
    end
    else reject t c ~rid WC.Not_held ~retry_after_ms:0

  let handle_close t c s ~rid =
    c.attached <- None;
    trace t "session.close" [ ("sid", s.sid) ];
    send_resp t c (WC.Closed { rid });
    end_session t s

  (* Session-scoped requests: no session on this connection is a
     protocol error. Expiry closes the session's connection after its
     [Session_lost], so a renewal racing its own expiry is never read:
     it loses visibly and never revives the session. *)
  let with_session t c ~rid f =
    match c.attached with
    | None -> reject t c ~rid WC.Bad_request ~retry_after_ms:0
    | Some s -> f s

  let dispatch t c req =
    match req with
    | WC.Hello { rid } ->
        send_resp t c
          (WC.Hello_ok { rid; node = Node.id t.node; proto = WC.version })
    | WC.Open_session { rid; lease_ms; resume } ->
        handle_open t c ~rid ~lease_ms ~resume
    | WC.Acquire { rid; lock; timeout_ms; try_only; shared } ->
        with_session t c ~rid (fun s ->
            handle_acquire t c s ~rid ~lock ~timeout_ms ~try_only ~shared)
    | WC.Release { rid; lock } ->
        with_session t c ~rid (fun s -> handle_release t c s ~rid ~lock)
    | WC.Renew { rid } ->
        with_session t c ~rid (fun s ->
            renew_lease s;
            send_resp t c (WC.Renewed { rid; lease_ms = s.s_lease_ms }))
    | WC.Close { rid } ->
        with_session t c ~rid (fun s -> handle_close t c s ~rid)

  let malformed t c m =
    trace t ~severity:Obs.Events.Warn "session.malformed" [ ("error", m) ];
    send_resp t c
      (WC.Session_lost { rid = 0; reason = "malformed request: " ^ m });
    drop_conn t c

  let conn_ready t c ~readable ~writable =
    let serve body = if c.c_open then dispatch t c (WC.decode_request body) in
    try
      if writable then flush_conn t c;
      if readable && c.c_open && not (Session_frame.input c.st serve) then
        drop_conn t c
    with
    | Wire.Malformed m -> malformed t c m
    | Unix.Unix_error _ -> drop_conn t c
    | e ->
        Log.err (fun m ->
            m "session request failed: %s" (Printexc.to_string e));
        drop_conn t c

  (* A connection over the cap, or one the loop could not select on,
     is shed like an over-cap session: an explicit [Rejected], then
     closed. The reply fits an empty socket buffer, so the blocking
     write returns at once. *)
  let refuse t fd =
    count_rejection t WC.Session_limit;
    (try
       Session_frame.send fd
         (WC.encode_response
            (WC.Rejected
               { rid = 0; reason = WC.Session_limit;
                 retry_after_ms = t.lease_ms / 2 }))
     with Unix.Unix_error _ -> ());
    try Unix.close fd with Unix.Unix_error _ -> ()

  let rec accept_all t =
    match Unix.accept t.sock with
    | fd, _ ->
        if Hashtbl.length t.conns >= t.max_sessions + conn_slack
           || fd_index fd >= select_limit
        then refuse t fd
        else begin
          Unix.setsockopt fd Unix.TCP_NODELAY true;
          let c =
            { fd; st = Session_frame.stream fd; attached = None; c_open = true }
          in
          Hashtbl.replace t.conns fd c;
          Reactor.add t.loop fd ~read:true ~write:false (conn_ready t c)
        end;
        accept_all t
    | exception Unix.Unix_error ((Unix.EMFILE | Unix.ENFILE), _, _) ->
        (* Out of descriptors: the connection stays in the backlog and
           the socket stays readable. Stop listening until the next
           sweep instead of spinning on it. *)
        t.accept_paused <- true;
        Reactor.modify t.loop t.sock ~read:false ~write:false
    | exception Unix.Unix_error (Unix.ECONNABORTED, _, _) -> accept_all t
    | exception Unix.Unix_error _ -> ()

  (* Lease / grace expiries, then queued acquires past their deadline:
     a prompt, explicit timeout even while the node request is still
     outstanding, which is asked again if newer waiters remain. *)
  let sweep t t_now =
    if t.accept_paused then begin
      t.accept_paused <- false;
      Reactor.modify t.loop t.sock ~read:true ~write:false
    end;
    Hashtbl.fold
      (fun _ s acc -> if t_now > s.s_deadline then s :: acc else acc)
      t.sessions []
    |> List.iter (fun s -> expire_session t s ~reason:"lease expired");
    Hashtbl.iter
      (fun _ lq ->
        if lq.lq_waiters <> [] then begin
          List.iter
            (fun w -> if w.w_pending && t_now > w.w_deadline then time_out t w)
            lq.lq_waiters;
          lq.lq_waiters <- List.filter (fun w -> w.w_pending) lq.lq_waiters;
          set_gauge lq.lq_depth (float_of_int (List.length lq.lq_waiters));
          if lq.lq_requests = 1 && t_now > lq.lq_horizon then request t lq
        end)
      t.locks

  let tick t t_now =
    if t_now >= t.next_sweep then begin
      t.next_sweep <- t_now +. sweep_period;
      guarded "sweep" (fun () -> sweep t t_now)
    end;
    Some t.next_sweep

  (* Called once [closed] is set. A grant callback that read it unset
     runs under its instance's mutex, which [Node.holding] takes (its
     documented contract): once this returns, every such callback has
     posted its thunk. *)
  let await_grant_callbacks t =
    List.iter
      (fun lock -> ignore (Node.holding ~lock t.node))
      (Node.locks t.node)

  (* On the loop thread, once [closed] is set: tell every attached
     client loudly before the sockets vanish, so failover starts now
     rather than on a TCP timeout, and give every held grant back. *)
  let teardown t =
    Hashtbl.fold (fun _ s acc -> s :: acc) t.sessions []
    |> List.iter (fun s ->
           guarded "shutdown" (fun () ->
               expire_session t s ~reason:"node shutting down"));
    Hashtbl.fold (fun _ c acc -> c :: acc) t.conns []
    |> List.iter (drop_conn t);
    Reactor.remove t.loop t.sock;
    try Unix.close t.sock with Unix.Unix_error _ -> ()

  (* The loop thread. [Reactor.run] returns on [shutdown]'s stop, or
     when the loop itself fails; then the server closes here, so later
     grants are declined and the ones already posted release. Thunks
     the loop left queued run last (a failing loop can leave
     [shutdown]'s teardown among them). *)
  let serve t () =
    Reactor.run t.loop;
    let failed = not (Atomic.exchange t.closed true) in
    if failed then begin
      Log.err (fun m -> m "session loop stopped; closing the server");
      await_grant_callbacks t
    end;
    Reactor.run_posts t.loop;
    if failed then guarded "teardown" (fun () -> teardown t)

  (* ---------------------------------------------------------------- *)

  let create ?(lease_ms = 5_000) ?grace_ms ?(max_sessions = 1_024)
      ?(max_waiters = 256) ?(max_inflight = 32) ?obs ?trace:trace_sink ?seed
      ~fencing ~node ~addr () =
    let grace_ms = Option.value grace_ms ~default:lease_ms in
    let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.setsockopt sock Unix.SO_REUSEADDR true;
    (try
       Unix.bind sock
         (Unix.ADDR_INET
            (Unix.inet_addr_of_string addr.Transport.host, addr.Transport.port));
       Unix.listen sock 128;
       Unix.set_nonblock sock
     with e ->
       (try Unix.close sock with _ -> ());
       raise e);
    let port =
      match Unix.getsockname sock with
      | Unix.ADDR_INET (_, p) -> p
      | _ -> addr.Transport.port
    in
    let ghandle ?labels name =
      Option.map (fun reg -> Obs.Registry.Gauge.get reg ?labels name) obs
    in
    let chandle ?labels name =
      Option.map (fun reg -> Obs.Registry.Counter.get reg ?labels name) obs
    in
    let locks = Hashtbl.create 16 in
    List.iter
      (fun lock ->
        let labels = Obs.Names.lock_label lock in
        Hashtbl.replace locks lock
          {
            lq_lock = lock;
            lq_waiters = [];
            lq_requests = 0;
            lq_horizon = 0.;
            lq_holders = [];
            lq_last_fencing = -1;
            lq_grants = chandle ~labels Obs.Names.client_grants_total;
            lq_fencing = ghandle ~labels Obs.Names.client_fencing;
            lq_depth = ghandle ~labels Obs.Names.client_waiters;
          })
      (Node.locks node);
    let t =
      {
        node;
        fencing;
        lease_ms;
        grace_ms;
        max_sessions;
        max_waiters;
        max_inflight;
        loop = Reactor.create ();
        thread = None;
        closed = Atomic.make false;
        sessions = Hashtbl.create 64;
        locks;
        conns = Hashtbl.create 64;
        rng =
          (match seed with
          | Some s -> Random.State.make [| s; 0x5e55 |]
          | None -> Random.State.make_self_init ());
        sock;
        port;
        next_sweep = 0.0;
        accept_paused = false;
        counts =
          { opened = 0; resumed = 0; expired = 0; granted = 0; rejected = 0;
            stale_grants = 0 };
        obs;
        g_sessions = ghandle Obs.Names.client_sessions;
        c_opened = chandle Obs.Names.client_sessions_opened_total;
        c_resumes = chandle Obs.Names.client_resumes_total;
        c_expiries = chandle Obs.Names.client_lease_expiries_total;
        c_stale = chandle Obs.Names.client_stale_grants_total;
        trace = trace_sink;
      }
    in
    Reactor.add t.loop sock ~read:true ~write:false
      (fun ~readable:_ ~writable:_ -> guarded "accept" (fun () -> accept_all t));
    Reactor.set_tick t.loop (tick t);
    t.thread <- Some (Thread.create (serve t) ());
    t

  let port t = t.port
  let sessions t = Hashtbl.length t.sessions

  let stats t = t.counts

  let last_fencing t ~lock =
    match Hashtbl.find_opt t.locks lock with
    | Some lq when lq.lq_last_fencing >= 0 -> Some lq.lq_last_fencing
    | _ -> None

  let shutdown t =
    if not (Atomic.exchange t.closed true) then begin
      (* Every grant thunk is posted ahead of the stop, which the loop
         therefore never outruns. *)
      await_grant_callbacks t;
      Reactor.post t.loop (fun () -> guarded "teardown" (fun () -> teardown t));
      Reactor.stop t.loop
    end;
    Option.iter Thread.join t.thread
end
