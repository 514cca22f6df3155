module WC = Wire.Client

type error =
  | Timeout
  | Rejected of WC.reject_reason * float
  | Session_lost of string
  | Disconnected of string

let string_of_error = function
  | Timeout -> "timeout"
  | Rejected (r, after) ->
      Printf.sprintf "rejected: %s (retry after %.1fs)"
        (WC.string_of_reason r) after
  | Session_lost r -> "session lost: " ^ r
  | Disconnected r -> "disconnected: " ^ r

type pend = { mutable presp : WC.resp option; mutable pfail : bool }

type t = {
  mu : Mutex.t;
  cv : Condition.t;
  wmu : Mutex.t;  (** serializes frame writes on the live socket *)
  addrs : Transport.endpoint array;
  lease_ms : int;
  backoff_base : float;
  backoff_cap : float;
  rng : Random.State.t;  (** backoff jitter; guarded by [mu] *)
  mutable rr : int;  (** next endpoint to try (sticks to the last good) *)
  mutable fd : Unix.file_descr option;
  mutable sid : string option;
  mutable held : (string * int) list;  (** lock -> fencing token *)
  mutable lost : string option;  (** sticky until surfaced to the caller *)
  mutable next_rid : int;
  pending : (int, pend) Hashtbl.t;
  mutable connecting : bool;
  mutable reading : bool;  (** one thread multiplexes reads at a time *)
  mutable rfd : Unix.file_descr option;  (** the fd being read right now *)
  mutable dead : Unix.file_descr list;  (** closed once no longer read *)
  mutable stopping : bool;
  mutable renewer : Thread.t option;
}

let now () = Unix.gettimeofday ()

(* ------------------------------------------------------------------ *)
(* Socket reads with idle detection.

   The socket carries a 50 ms receive timeout; a timeout on the very
   first byte of a frame is a clean "nothing to read" ([Idle]), while
   a stall in the middle of a frame — the sender writes whole frames
   in one syscall, so mid-frame silence means a broken peer — fails
   the connection after ~2 s of retries. *)

exception Idle

let rec read_part fd buf pos len ~first ~tries =
  if len > 0 then
    match Unix.read fd buf pos len with
    | 0 -> raise Session_frame.Closed
    | n -> read_part fd buf (pos + n) (len - n) ~first:false ~tries
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        if first then raise Idle
        else if tries >= 40 then failwith "frame stalled mid-read"
        else read_part fd buf pos len ~first ~tries:(tries + 1)
    | exception Unix.Unix_error (Unix.EINTR, _, _) ->
        read_part fd buf pos len ~first ~tries

let recv_msg fd =
  let hdr = Bytes.create 4 in
  read_part fd hdr 0 4 ~first:true ~tries:0;
  let len = Int32.to_int (Bytes.get_int32_be hdr 0) in
  if len < 0 || len > Session_frame.max_frame then
    raise (Wire.Malformed (Printf.sprintf "client frame length %d" len));
  let body = Bytes.create len in
  read_part fd body 0 len ~first:false ~tries:0;
  WC.decode_response (Bytes.unsafe_to_string body)

(* ------------------------------------------------------------------ *)
(* Connection lifecycle *)

(* Tear down [fd] as the live connection (send failure, read failure,
   or a deliberate break). Pending calls fail — their callers decide
   whether to retry on a fresh connection. The fd itself is closed
   here unless another thread is mid-read on it, in which case that
   thread closes it when it surfaces. Only the first call for an fd
   acts: a second (a writer and the reader both failing on it) would
   close the number again, by then perhaps another file's. *)
let conn_down t fd reason =
  ignore reason;
  Mutex.lock t.mu;
  if t.fd = Some fd then begin
    t.fd <- None;
    Hashtbl.iter (fun _ p -> p.pfail <- true) t.pending;
    Condition.broadcast t.cv;
    (try Unix.shutdown fd Unix.SHUTDOWN_ALL with _ -> ());
    if t.rfd = Some fd then t.dead <- fd :: t.dead
    else (try Unix.close fd with _ -> ())
  end;
  Mutex.unlock t.mu

(* One TCP connect + hello + open/resume handshake against [ep].
   Synchronous: no other thread touches this fd until it is published
   as [t.fd]. *)
let try_endpoint t ep ~resume =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  let cleanup () = try Unix.close fd with _ -> () in
  match
    Unix.connect fd
      (Unix.ADDR_INET (Unix.inet_addr_of_string ep.Transport.host, ep.port));
    Unix.setsockopt fd Unix.TCP_NODELAY true;
    Unix.setsockopt_float fd Unix.SO_SNDTIMEO 2.0;
    Unix.setsockopt_float fd Unix.SO_RCVTIMEO 2.0;
    Session_frame.send fd (WC.encode_request (WC.Hello { rid = 0 }));
    WC.decode_response (Session_frame.recv fd)
  with
  | exception _ ->
      cleanup ();
      `Unreachable
  | WC.Hello_ok _ -> (
      let rec open_ resume =
        Session_frame.send fd
          (WC.encode_request
             (WC.Open_session { rid = 1; lease_ms = t.lease_ms; resume }));
        match WC.decode_response (Session_frame.recv fd) with
        | WC.Session_opened { sid; resumed; held; _ } ->
            `Opened (sid, if resumed then held else [])
        | WC.Session_lost _ when resume <> None ->
            (* Grace window closed (or wrong node after a wipe). With
               grants at stake this is a loud session-lost; otherwise
               just start over with a fresh session. *)
            if t.held <> [] then `Lost "session not resumable, grants lost"
            else open_ None
        | WC.Session_lost { reason; _ } -> `Lost reason
        | WC.Rejected { retry_after_ms; _ } -> `Shedding retry_after_ms
        | _ -> `Unreachable
      in
      match open_ resume with
      | exception _ ->
          cleanup ();
          `Unreachable
      | `Opened o ->
          (try Unix.setsockopt_float fd Unix.SO_RCVTIMEO 0.05 with _ -> ());
          `Conn (fd, o)
      | (`Lost _ | `Shedding _ | `Unreachable) as r ->
          cleanup ();
          r)
  | _ ->
      cleanup ();
      `Unreachable

(* Get a live connection (and session) or say why not. Loops over all
   endpoints with capped-exponential backoff between full sweeps,
   until [deadline]. Called with [t.mu] held; returns with it held. *)
let rec ensure_conn t ~deadline =
  if t.stopping then Error (Disconnected "client closed")
  else
    match t.lost with
    | Some r ->
        (* Surface the loss exactly once; the next call starts a
           fresh session from scratch. *)
        t.lost <- None;
        t.sid <- None;
        t.held <- [];
        Error (Session_lost r)
    | None -> (
        match t.fd with
        | Some fd -> Ok fd
        | None ->
            if t.connecting then begin
              Condition.wait t.cv t.mu;
              ensure_conn t ~deadline
            end
            else begin
              t.connecting <- true;
              let resume = t.sid in
              let n = Array.length t.addrs in
              let start = t.rr in
              Mutex.unlock t.mu;
              let result = ref `Unreachable in
              (try
                 for k = 0 to n - 1 do
                   match !result with
                   | `Conn _ | `Lost _ -> ()
                   | _ -> (
                       let i = (start + k) mod n in
                       match try_endpoint t t.addrs.(i) ~resume with
                       | `Conn _ as c ->
                           result := c;
                           Mutex.lock t.mu;
                           t.rr <- i;
                           Mutex.unlock t.mu
                       | `Lost _ as l -> result := l
                       | `Shedding _ as s ->
                           if !result = `Unreachable then result := s
                       | `Unreachable -> ())
                 done
               with e ->
                 Mutex.lock t.mu;
                 t.connecting <- false;
                 Condition.broadcast t.cv;
                 Mutex.unlock t.mu;
                 raise e);
              Mutex.lock t.mu;
              t.connecting <- false;
              Condition.broadcast t.cv;
              match !result with
              | `Conn (fd, (sid, held)) ->
                  t.fd <- Some fd;
                  t.sid <- Some sid;
                  t.held <- held;
                  Condition.broadcast t.cv;
                  Ok fd
              | `Lost r ->
                  t.sid <- None;
                  t.held <- [];
                  Error (Session_lost r)
              | (`Shedding _ | `Unreachable) as r ->
                  let wait =
                    let base =
                      match r with
                      | `Shedding ms when ms > 0 -> float_of_int ms /. 1000.
                      | _ ->
                          let sweep = t.next_rid land 7 in
                          Float.min t.backoff_cap
                            (t.backoff_base *. (2. ** float_of_int sweep))
                    in
                    base *. (0.5 +. Random.State.float t.rng 1.0)
                  in
                  if now () +. wait > deadline then
                    Error (Disconnected "no session node reachable")
                  else begin
                    Mutex.unlock t.mu;
                    Thread.delay wait;
                    Mutex.lock t.mu;
                    ensure_conn t ~deadline
                  end
            end)

(* ------------------------------------------------------------------ *)
(* Multiplexed request/response *)

(* Route one received response. Called with [t.mu] held. *)
let route t resp =
  let deliver rid =
    match Hashtbl.find_opt t.pending rid with
    | Some p ->
        p.presp <- Some resp;
        Condition.broadcast t.cv
    | None -> () (* late reply for a call that already gave up *)
  in
  match resp with
  | WC.Session_lost { rid = 0; reason } ->
      (* Unsolicited: lease expired server-side, load shed, or the
         node is going down. The session is gone. *)
      t.lost <- Some reason;
      t.sid <- None;
      t.held <- [];
      Hashtbl.iter (fun _ p -> p.pfail <- true) t.pending;
      Condition.broadcast t.cv
  | WC.Session_lost { rid; reason = _ } as r ->
      t.sid <- None;
      t.held <- [];
      deliver rid;
      ignore r
  | WC.Hello_ok { rid; _ }
  | WC.Session_opened { rid; _ }
  | WC.Granted { rid; _ }
  | WC.Rejected { rid; _ }
  | WC.Released { rid; _ }
  | WC.Renewed { rid; _ }
  | WC.Closed { rid } ->
      deliver rid

(* Wait for [pend] to resolve. Whoever gets here first while nobody
   is reading becomes the reader and multiplexes responses for every
   waiter; the rest sleep on the condition. Called with [t.mu] held;
   returns with it held. *)
let rec await t pend ~deadline ~fd =
  if pend.presp <> None then `Resp (Option.get pend.presp)
  else if pend.pfail then `Fail
  else if now () > deadline then `Timeout
  else if t.reading then begin
    Condition.wait t.cv t.mu;
    await t pend ~deadline ~fd
  end
  else begin
    t.reading <- true;
    t.rfd <- Some fd;
    Mutex.unlock t.mu;
    let outcome = try `Msg (recv_msg fd) with Idle -> `Idle | _ -> `Err in
    Mutex.lock t.mu;
    t.reading <- false;
    t.rfd <- None;
    if List.mem fd t.dead then begin
      t.dead <- List.filter (fun d -> d <> fd) t.dead;
      try Unix.close fd with _ -> ()
    end;
    (match outcome with
    | `Msg m ->
        route t m;
        Condition.broadcast t.cv
    | `Idle -> Condition.broadcast t.cv
    | `Err ->
        Mutex.unlock t.mu;
        conn_down t fd "read failed";
        Mutex.lock t.mu);
    await t pend ~deadline ~fd
  end

let rpc t ~deadline req_of_rid =
  Mutex.lock t.mu;
  let res =
    match ensure_conn t ~deadline with
    | Error e -> Error e
    | Ok fd -> (
        let rid = t.next_rid in
        t.next_rid <- rid + 1;
        let pend = { presp = None; pfail = false } in
        Hashtbl.replace t.pending rid pend;
        Mutex.unlock t.mu;
        let sent =
          Mutex.lock t.wmu;
          let r =
            try
              Session_frame.send fd (WC.encode_request (req_of_rid rid));
              true
            with _ -> false
          in
          Mutex.unlock t.wmu;
          r
        in
        if not sent then conn_down t fd "write failed";
        Mutex.lock t.mu;
        let r =
          if sent then await t pend ~deadline ~fd
          else `Fail
        in
        Hashtbl.remove t.pending rid;
        match r with
        | `Resp resp -> Ok resp
        | `Fail -> Error (Disconnected "connection lost")
        | `Timeout -> Error Timeout)
  in
  Mutex.unlock t.mu;
  res

(* Drain any unsolicited messages queued on the socket (one 50 ms
   idle probe). A server-side session kill is only visible as an
   unread [Session_lost] until somebody reads — so any fast path that
   trusts cached state ([held]) must drain first. *)
let drain_notices t =
  Mutex.lock t.mu;
  let rec loop () =
    match t.fd with
    | Some fd when not t.reading ->
        t.reading <- true;
        t.rfd <- Some fd;
        Mutex.unlock t.mu;
        let outcome = try `Msg (recv_msg fd) with Idle -> `Idle | _ -> `Err in
        Mutex.lock t.mu;
        t.reading <- false;
        t.rfd <- None;
        if List.mem fd t.dead then begin
          t.dead <- List.filter (fun d -> d <> fd) t.dead;
          try Unix.close fd with _ -> ()
        end;
        (match outcome with
        | `Msg m ->
            route t m;
            Condition.broadcast t.cv;
            loop ()
        | `Idle -> Condition.broadcast t.cv
        | `Err ->
            Mutex.unlock t.mu;
            conn_down t fd "read failed";
            Mutex.lock t.mu)
    | _ -> ()
  in
  loop ();
  Mutex.unlock t.mu

(* ------------------------------------------------------------------ *)
(* Public operations *)

let held_fencing t lock =
  Mutex.lock t.mu;
  let f = List.assoc_opt lock t.held in
  Mutex.unlock t.mu;
  f

(* [held] is only trustworthy after the queued notices are read. *)
let held_fencing_fresh t lock =
  (match held_fencing t lock with Some _ -> drain_notices t | None -> ());
  held_fencing t lock

let acquire ?(timeout = 30.0) ?(shared = false) ~lock t =
  let deadline = now () +. timeout in
  let rec go () =
    match held_fencing_fresh t lock with
    | Some f -> Ok f (* a grant landed during failover; resume restored it *)
    | None ->
        let remaining = deadline -. now () in
        if remaining <= 0. then Error Timeout
        else
          let timeout_ms = int_of_float (Float.max 1. (remaining *. 1000.)) in
          (* The server enforces [timeout_ms]; the local deadline gets
             slack so the server's explicit rejection wins the race. *)
          let r =
            rpc t ~deadline:(deadline +. 2.0) (fun rid ->
                WC.Acquire { rid; lock; timeout_ms; try_only = false; shared })
          in
          handle r
  and handle = function
    | Ok (WC.Granted { fencing; _ }) ->
        Mutex.lock t.mu;
        t.held <- (lock, fencing) :: List.remove_assoc lock t.held;
        Mutex.unlock t.mu;
        Ok fencing
    | Ok (WC.Rejected { reason = WC.Already_held; _ }) -> (
        match held_fencing t lock with
        | Some f -> Ok f
        | None -> Error (Rejected (WC.Already_held, 0.)))
    | Ok (WC.Rejected { reason; retry_after_ms; _ }) ->
        Error (Rejected (reason, float_of_int retry_after_ms /. 1000.))
    | Ok (WC.Session_lost { reason; _ }) -> Error (Session_lost reason)
    | Ok _ -> Error (Disconnected "unexpected response")
    | Error (Disconnected _) when now () < deadline -> go ()
    | Error e -> Error e
  in
  go ()

let try_acquire ?(shared = false) ~lock t =
  match held_fencing_fresh t lock with
  | Some f -> Ok f
  | None -> (
      let r =
        rpc t
          ~deadline:(now () +. 5.0)
          (fun rid ->
            WC.Acquire { rid; lock; timeout_ms = 0; try_only = true; shared })
      in
      match r with
      | Ok (WC.Granted { fencing; _ }) ->
          Mutex.lock t.mu;
          t.held <- (lock, fencing) :: List.remove_assoc lock t.held;
          Mutex.unlock t.mu;
          Ok fencing
      | Ok (WC.Rejected { reason = WC.Lock_timeout; _ }) -> Error Timeout
      | Ok (WC.Rejected { reason; retry_after_ms; _ }) ->
          Error (Rejected (reason, float_of_int retry_after_ms /. 1000.))
      | Ok (WC.Session_lost { reason; _ }) -> Error (Session_lost reason)
      | Ok _ -> Error (Disconnected "unexpected response")
      | Error e -> Error e)

let release ~lock t =
  let deadline = now () +. 10.0 in
  let forget () =
    Mutex.lock t.mu;
    t.held <- List.remove_assoc lock t.held;
    Mutex.unlock t.mu
  in
  let rec go () =
    match held_fencing t lock with
    | None -> Ok () (* already released, or drained server-side *)
    | Some _ -> (
        match
          rpc t ~deadline (fun rid -> WC.Release { rid; lock })
        with
        | Ok (WC.Released _) ->
            forget ();
            Ok ()
        | Ok (WC.Rejected { reason = WC.Not_held; _ }) ->
            (* The lease lapsed and the server drained the grant: the
               lock is free (the caller's goal state) but their
               fencing token is stale — say so. *)
            forget ();
            Error (Rejected (WC.Not_held, 0.))
        | Ok (WC.Rejected { reason; retry_after_ms; _ }) ->
            Error (Rejected (reason, float_of_int retry_after_ms /. 1000.))
        | Ok (WC.Session_lost { reason; _ }) ->
            forget ();
            Error (Session_lost reason)
        | Ok _ -> Error (Disconnected "unexpected response")
        | Error (Disconnected _) when now () < deadline ->
            go () (* failover resume refreshes [held]; retry or observe *)
        | Error (Session_lost _ as e) ->
            forget ();
            Error e
        | Error e -> Error e)
  in
  go ()

let renew t =
  match rpc t ~deadline:(now () +. 2.0) (fun rid -> WC.Renew { rid }) with
  | Ok (WC.Renewed _) -> Ok ()
  | Ok (WC.Session_lost { reason; _ }) -> Error (Session_lost reason)
  | Ok (WC.Rejected { reason; retry_after_ms; _ }) ->
      Error (Rejected (reason, float_of_int retry_after_ms /. 1000.))
  | Ok _ -> Error (Disconnected "unexpected response")
  | Error e -> Error e

let with_lock ?timeout ?shared ~lock t f =
  match acquire ?timeout ?shared ~lock t with
  | Error e -> Error e
  | Ok fencing -> (
      match f ~fencing with
      | v ->
          ignore (release ~lock t);
          Ok v
      | exception e ->
          ignore (release ~lock t);
          raise e)

(* Transactions: hold a whole multi-lock set at once. Safety against
   deadlock does not come from luck — every participant acquires in
   the one canonical (lexicographic) key order, so the hold-and-wait
   graph over lock keys is acyclic by construction. Within one
   attempt each acquire gets a slice of the total budget; a refusal
   mid-set releases everything already held (all-or-nothing) and
   retries, so two transactions colliding half-way both back off
   instead of wedging. *)
let with_locks ?(timeout = 30.0) ?(retries = 4) ~locks t f =
  if locks = [] then invalid_arg "Session_client.with_locks: empty lock list";
  let sorted =
    List.stable_sort (fun (a, _) (b, _) -> String.compare a b) locks
  in
  let rec check_dup = function
    | (a, _) :: ((b, _) :: _ as rest) ->
        if String.equal a b then
          invalid_arg
            (Printf.sprintf "Session_client.with_locks: duplicate lock %S" a)
        else check_dup rest
    | _ -> ()
  in
  check_dup sorted;
  let deadline = now () +. timeout in
  let slice = Float.max 0.05 (timeout /. float_of_int (retries + 1)) in
  (* [held] lists are newest-first, so iterating releases in reverse
     acquisition order. *)
  let release_all held =
    List.iter (fun (lock, _) -> ignore (release ~lock t)) held
  in
  let rec attempt tries =
    let sub = Float.min deadline (now () +. slice) in
    let rec grab held = function
      | [] -> Ok held
      | (lock, mode) :: rest -> (
          let tmo = Float.max 0.05 (sub -. now ()) in
          match
            acquire ~timeout:tmo
              ~shared:(mode = Dmutex.Types.Shared)
              ~lock t
          with
          | Ok fencing -> grab ((lock, fencing) :: held) rest
          | Error e ->
              release_all held;
              Error e)
    in
    match grab [] sorted with
    | Ok held -> (
        (* The transaction's fencing token: the max over the set
           dominates every per-lock token, so a downstream resource
           guarded by any of the locks rejects staler holders. *)
        let fencing = List.fold_left (fun acc (_, f) -> max acc f) 0 held in
        match f ~fencing with
        | v ->
            release_all held;
            Ok v
        | exception e ->
            release_all held;
            raise e)
    | Error (Session_lost _ as e) | Error (Disconnected _ as e) -> Error e
    | Error e ->
        if tries < retries && now () < deadline then attempt (tries + 1)
        else Error e
  in
  attempt 0

let session_id t =
  Mutex.lock t.mu;
  let s = t.sid in
  Mutex.unlock t.mu;
  s

let connected t =
  Mutex.lock t.mu;
  let c = t.fd <> None in
  Mutex.unlock t.mu;
  c

let break_conn t =
  Mutex.lock t.mu;
  let fd = t.fd in
  Mutex.unlock t.mu;
  match fd with Some fd -> conn_down t fd "broken for test" | None -> ()

let close t =
  let fd =
    Mutex.lock t.mu;
    let fd = t.fd in
    Mutex.unlock t.mu;
    fd
  in
  (match fd with
  | Some _ ->
      (* Best-effort graceful close so the server frees the session
         now instead of at lease expiry. *)
      ignore (rpc t ~deadline:(now () +. 1.0) (fun rid -> WC.Close { rid }))
  | None -> ());
  Mutex.lock t.mu;
  t.stopping <- true;
  t.lost <- None;
  t.sid <- None;
  t.held <- [];
  Condition.broadcast t.cv;
  let fd = t.fd in
  t.fd <- None;
  Mutex.unlock t.mu;
  (match fd with
  | Some fd ->
      (try Unix.shutdown fd Unix.SHUTDOWN_ALL with _ -> ());
      Mutex.lock t.mu;
      if t.rfd = Some fd then t.dead <- fd :: t.dead
      else (try Unix.close fd with _ -> ());
      Mutex.unlock t.mu
  | None -> ());
  match t.renewer with Some th -> Thread.join th | None -> ()

(* Keep the lease warm (and eagerly re-attach after a disconnection)
   from a background thread, so a client sitting in its critical
   section never loses the session to a lease it forgot to renew. *)
let renew_loop t =
  let period = Float.max 0.1 (float_of_int t.lease_ms /. 3000.) in
  let rec sleep remaining =
    if remaining > 0. && not t.stopping then begin
      Thread.delay (Float.min 0.1 remaining);
      sleep (remaining -. 0.1)
    end
  in
  while not t.stopping do
    sleep period;
    if not t.stopping then begin
      let have_session =
        Mutex.lock t.mu;
        let h = t.sid <> None || t.held <> [] in
        Mutex.unlock t.mu;
        h
      in
      if have_session then
        match renew t with
        | Ok () | Error _ -> () (* errors surface on the next user call *)
    end
  done

let connect ?(lease_ms = 5_000) ?(backoff = (0.05, 2.0)) ?seed ~addrs () =
  if addrs = [] then invalid_arg "Session_client.connect: no endpoints";
  let backoff_base, backoff_cap = backoff in
  let seed =
    match seed with
    | Some s -> s
    | None ->
        (int_of_float (Unix.gettimeofday () *. 1e6) lxor (Unix.getpid () * 31))
        land max_int
  in
  let t =
    {
      mu = Mutex.create ();
      cv = Condition.create ();
      wmu = Mutex.create ();
      addrs = Array.of_list addrs;
      lease_ms;
      backoff_base;
      backoff_cap;
      rng = Random.State.make [| seed; 0xc11e |];
      rr = 0;
      fd = None;
      sid = None;
      held = [];
      lost = None;
      next_rid = 2;
      pending = Hashtbl.create 8;
      connecting = false;
      reading = false;
      rfd = None;
      dead = [];
      stopping = false;
      renewer = None;
    }
  in
  t.renewer <- Some (Thread.create renew_loop t);
  t
