(** Client-facing session service: thin clients acquire the
    distributed locks a node hosts without joining the protocol's
    broadcast set.

    The paper makes every participant a full Q-list node; at "millions
    of users" scale that is untenable, so M ≫ N clients connect here
    over the {!Wire.Client} request/response protocol and the node
    enters the critical section on their behalf.

    One {!Reactor} loop on one system thread owns a server's state:
    the listening socket, every connection (non-blocking, framed by
    {!Session_frame}), every lease and every lock's wait queue. It
    keeps one [Node.acquire ~granted] request outstanding per lock
    (made once more if every waiter it was made for times out first);
    the grant callback posts the post-grant state to the loop,
    which derives the fencing token and grants one exclusive waiter,
    or the whole leading run of shared waiters under one token (the
    protocol's reader batch, seen from the session layer). The node
    releases when the batch's last holder releases, closes or expires.
    Client requests run their protocol steps, store fsync included,
    on the loop thread.

    Robustness invariants:

    - {b Leases.} A session must renew (any request renews; [Renew]
      exists for idle holders) within [lease_ms] or it is expired: its
      held grants are drained (the node releases the distributed
      lock), its queued acquires are cancelled, and its connection
      gets an unsolicited [Session_lost]. A stalled or dead client can
      delay a lock by at most one lease.
    - {b Fencing.} Every grant carries a fencing token — strictly
      monotonic per lock, cluster-wide — derived from durable protocol
      state ({!Dmutex_store.Protocol_view.fencing_of_state}): the
      token-regeneration epoch above the [L] vector's grant sum.
      Downstream resources reject a staler holder by comparing tokens.
      Grants for which no genuine token can be derived (recovery
      re-grants of already-served requests) are dropped and retried,
      never issued.
    - {b Failover.} A disconnected session stays resumable by sid for
      a [grace_ms] window; resuming returns the held-locks list so a
      client whose [Granted] reply died with the connection recovers
      its grant state. Past the window the session is gone — loudly.
    - {b Load shedding.} Admission control caps live sessions
      ([max_sessions]), each lock's wait queue ([max_waiters]) and
      each session's in-flight acquires ([max_inflight]) and
      connections ([max_sessions] + 16, and none the loop could not
      select on: a descriptor at or past FD_SETSIZE); every refusal is
      an explicit [Rejected] with a retry-after hint. No request is
      ever silently dropped. A malformed frame gets
      [Session_lost] and a close; a client that leaves over
      {!Session_frame.max_frame} bytes of replies unread is closed.
      Either way its session is detached, not expired. *)

module Make
    (A : Dmutex.Types.ALGO)
    (C : Wire.CODEC with type message = A.message) : sig
  module Node : module type of Node_runner.Make (A) (C)

  type t

  type stats = {
    opened : int;  (** Sessions opened (fresh, not resumes). *)
    resumed : int;  (** Successful re-attaches by sid. *)
    expired : int;  (** Lease/grace expiries, incl. shutdown. *)
    granted : int;  (** Grants issued (fencing tokens handed out). *)
    rejected : int;  (** Explicit [Rejected] replies of any reason. *)
    stale_grants : int;
        (** Grants dropped because no genuine fencing token could be
            derived (or it did not exceed the last one issued) —
            released and retried, never issued. *)
  }

  val create :
    ?lease_ms:int ->
    ?grace_ms:int ->
    ?max_sessions:int ->
    ?max_waiters:int ->
    ?max_inflight:int ->
    ?obs:Dmutex_obs.Registry.t ->
    ?trace:Dmutex_obs.Events.sink ->
    ?seed:int ->
    fencing:(A.state -> int option) ->
    node:Node.t ->
    addr:Transport.endpoint ->
    unit ->
    t
  (** Bind [addr] (port [0] picks an ephemeral one; see {!port}) and
      serve sessions for the locks [node] hosts. [fencing] derives the
      fencing token from the protocol state observed inside the CS —
      pass {!Dmutex_store.Protocol_view.fencing_of_state} for the
      stock protocol. Defaults: [lease_ms] 5000, [grace_ms] =
      [lease_ms], [max_sessions] 1024, [max_waiters] 256 per lock,
      [max_inflight] 32 per session. [obs] mirrors session activity
      into the [dmutex_client_*] series; [trace] records session
      lifecycle events. *)

  val port : t -> int
  (** The actually bound TCP port. *)

  val sessions : t -> int
  (** Live sessions right now (attached + in-grace detached). Like
      {!stats} and {!last_fencing}, read without stopping the loop. *)

  val stats : t -> stats

  val last_fencing : t -> lock:string -> int option
  (** The last fencing token this node issued for [lock], if any —
      test/debug visibility into the monotonicity invariant. *)

  val shutdown : t -> unit
  (** Stop accepting, expire every session (each attached client gets
      an unsolicited [Session_lost] so failover starts immediately),
      release every grant the node holds for a session, and join the
      loop thread. A grant still in flight is declined when it lands,
      and the node releases it at once. Shut the node down after this.
      Idempotent. A loop that fails closes the server the same way on
      its own; [shutdown] then only joins its thread. *)
end
