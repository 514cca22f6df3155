(** Host a registry of protocol state machines on a real network.

    The same pure {!Dmutex.Types.ALGO} implementations that the
    simulator and the model checker drive are run here over framed TCP
    ({!Transport}) with wall-clock timers, turning the paper's
    algorithm into a usable distributed lock {e service}: one node
    hosts an independent protocol instance per {e lock key}, all
    multiplexed over the node's single transport (frames carry the
    key), sharing one heartbeat/liveness monitor and one timer thread.
    Timers live in a node-wide wheel keyed by [(lock, timer)] with
    earliest-deadline sleeping (a [select] on a self-pipe, woken
    whenever the timer set changes) rather than polling — one sleeping
    thread per node, not per lock. *)

module Make
    (A : Dmutex.Types.ALGO)
    (C : Wire.CODEC with type message = A.message) : sig
  type t

  val default_lock : string
  (** The lock key every keyed operation defaults to (["default"]), so
      single-lock deployments never have to name it. *)

  val create :
    ?on_grant:(lock:string -> unit) ->
    ?fault:Fault.t ->
    ?heartbeat_period:float ->
    ?suspect_timeout:float ->
    ?on_suspect:(int -> unit) ->
    ?on_alive:(int -> unit) ->
    ?seed:int ->
    ?locks:string list ->
    ?initial:(lock:string -> A.state option) ->
    ?store:(lock:string -> Dmutex_store.Store.t option) ->
    ?persist:(A.state -> Dmutex_store.Store.view) ->
    ?obs:Dmutex_obs.Registry.t ->
    ?trace:Dmutex_obs.Events.sink ->
    ?flush_us:int ->
    ?io_domains:int ->
    Dmutex.Types.Config.t ->
    me:int ->
    peers:Transport.endpoint array ->
    unit ->
    t
  (** Start a node: bind its endpoint, start its (single) timer
      thread, and put one state machine per [locks] entry (default
      [[default_lock]]; duplicates and the empty list are rejected) in
      its initial state. [on_grant] fires (on an internal thread)
      whenever the node enters the critical section of that lock;
      alternatively use {!with_lock}.

      [initial ~lock] overrides [A.init] per instance — used to
      restart a node from a durable store
      ([Dmutex_store.Protocol_view.restore]). [store ~lock] + [persist]
      enable durability per instance: after {e every} step the
      post-step state's [persist] view is
      {!Dmutex_store.Store.record}ed — and fsynced — {e before} any of
      the step's effects (sends, CS entry) are applied, which is what
      makes the store's custody record safety-critical-correct: it can
      never over-claim a token the node no longer holds. Starting
      states are recorded at creation time too. Each instance must get
      its own store (directory); open them with matching
      [Store.open_ ~key].

      [fault] plugs a (normally cluster-shared) chaos injector into
      the transport. [heartbeat_period] > 0 enables the peer liveness
      monitor, shared by every instance: the transport beacons every
      period (once per peer, not per lock), and a peer silent (no
      data for any lock, no heartbeat) for longer than
      [suspect_timeout] (default 1 s) triggers [on_suspect]; the first
      frame heard afterwards triggers [on_alive]. Both callbacks run
      on internal threads and may call {!inject} — e.g. to feed a
      suspicion into the protocol as a timer or WARNING.

      [obs] plugs this node into a metrics registry: per-kind
      send/receive counters, CS entry/exit spans, sync delay, queue
      lengths, phase durations, note counters, heartbeat suspicions —
      the canonical {!Dmutex_obs.Names} series, same names the
      simulator emits — plus the transport's [dmutex_transport_*]
      counters. Protocol series carry a [lock=<key>] label per
      instance ({!Dmutex_obs.Names.lock_label}); transport and store
      series stay per-node. One registry per node; [Cluster] merges
      them. [trace] plugs in a (normally cluster-shared) structured
      event sink: CS enter/exit, recovery milestones and liveness
      suspicions are recorded with the node id (and lock key, where
      one applies) attached.

      [flush_us] and [io_domains] tune the transport's coalesced-flush
      timer and reactor pool size (see {!Transport.create}); the
      defaults — flush on the next reactor pass, one I/O domain — are
      right for most deployments. *)

  val id : t -> int
  (** This node's id (the [me] passed at [create]). *)

  val locks : t -> string list
  (** The lock keys this node hosts, in [create] order. *)

  val acquire :
    ?lock:string -> ?mode:Dmutex.Types.mode -> ?granted:(A.state -> bool) ->
    t -> unit
  (** Ask for the critical section of [lock] (non-blocking). [mode]
      (default [Exclusive]) labels the request; [Shared] requests at
      the head of the queue are served together as one reader batch.
      On the grant, [granted] (default: fire [on_grant], return [true])
      gets the post-grant state on the thread that ran the step, under
      the instance's mutex, so it must not call into the node: [true]
      keeps the CS for the caller to {!release}, [false] releases it. *)

  val release : ?lock:string -> t -> unit
  (** Leave the critical section of [lock]. Must only be called while
      holding it. *)

  val holding : ?lock:string -> t -> bool
  (** Whether this node is currently inside [lock]'s critical
      section. Takes the instance's mutex, so it returns only after a
      [granted] callback running for [lock] has returned. *)

  val with_lock :
    ?timeout:float ->
    ?lock:string ->
    ?mode:Dmutex.Types.mode ->
    t ->
    (unit -> 'a) ->
    'a option
  (** [with_lock t f] acquires the distributed lock [lock] (default
      {!default_lock}) in [mode] (default [Exclusive]), runs [f], and
      releases. Returns [None] if [timeout] (default 30 s) expires
      before the lock is granted. The abandoned request remains queued
      cluster-wide, so the node remembers it and {e drains} the stale
      grant the moment it lands (immediate release, no [on_grant]) — a
      later [with_lock] can never be granted on the back of an
      abandoned request. Independent locks never block each other:
      each instance has its own mutex and grant condition. *)

  val acquire_all :
    ?timeout:float ->
    ?retries:int ->
    locks:(string * Dmutex.Types.mode) list ->
    t ->
    bool
  (** Atomic multi-lock acquisition: block until {e every} lock of the
      set is held (in its given mode), or give everything back and
      return [false]. Locks are always grabbed in canonical order
      (sorted by key) — with every transaction acquiring in the one
      global order, hold-and-wait is acyclic, so transactions cannot
      deadlock each other. Within [timeout] (default 30 s) the attempt
      is retried up to [retries] (default 4) times: an attempt that
      cannot get some lock within its time slice releases all the
      locks it grabbed (all-or-nothing) before trying again, so a
      transaction never camps on a partial set. Duplicate keys and the
      empty set are rejected with [Invalid_argument]. On [true] the
      caller holds every lock and must {!release} each (or use
      {!with_locks}). *)

  val with_locks :
    ?timeout:float ->
    ?retries:int ->
    locks:(string * Dmutex.Types.mode) list ->
    t ->
    (unit -> 'a) ->
    'a option
  (** [with_locks ~locks t f]: {!acquire_all}, run [f] holding the
      whole set, release everything (reverse canonical order) even if
      [f] raises. [None] when the set could not be acquired within
      [timeout]. *)

  val state : ?lock:string -> t -> A.state
  (** Snapshot of one instance's protocol state (for inspection and
      tests). Raises [Invalid_argument] for a key the node does not
      host, as do all keyed operations. *)

  val messages_sent : t -> int

  val metrics : t -> Transport.metrics
  (** Live transport counters, shared across instances (all zero after
      {!shutdown}). *)

  val notes : ?lock:string -> t -> (string * int) list
  (** Protocol [Note] events counted since start, sorted by name —
      e.g. [("recovery-started", 2)]. Without [lock], summed across
      every instance; with it, that instance only. The live-cluster
      equivalent of the simulator's outcome notes. *)

  val note_count : ?lock:string -> t -> string -> int

  val suspected : t -> int list
  (** Peers currently suspected down by the liveness monitor (always
      empty when the monitor is off). *)

  val membership : ?lock:string -> t -> (int * string) list
  (** The member set [(id, addr)] this node currently believes for
      [lock]: the birth set (addrs [""]) until the first committed
      view's [Membership] note lands, then that view's members. The
      runner keeps the transport peer set and the liveness monitor
      pointed at the union of these sets across locks; frames from a
      sender outside a lock's set are dropped before protocol
      dispatch (counted as [dmutex_unknown_peer_total]), except
      membership traffic and PRIVILEGE hand-offs. *)

  val set_loss : t -> float -> unit
  (** Drop outgoing frames with this probability (chaos testing; see
      {!Transport.set_loss}). *)

  val inject : ?lock:string -> t -> (A.message, A.timer) Dmutex.Types.input -> unit
  (** Feed an arbitrary input to one instance's state machine — test
      hook for fault drills (e.g. simulating a WARNING or a timer). *)

  val store_stats : ?lock:string -> t -> Dmutex_store.Store.stats option
  (** Durability counters of one instance's store, if any. *)

  val obs : t -> Dmutex_obs.Registry.t option
  (** The registry passed at [create], if any. *)

  val shutdown : t -> unit
  (** Graceful stop: close sockets, stop the timer, liveness and
      writer threads, then {e flush and close} every instance's store.
      To the rest of the cluster this is still a crash — the node
      stops responding — but its own durable state is complete.
      Idempotent. *)

  val crash : t -> unit
  (** Crash-style stop: like {!shutdown} but the stores are closed
      {e without} flushing ({!Dmutex_store.Store.abort}), leaving on
      disk exactly what explicit fsyncs made durable — what a real
      crash leaves. Restart drills use this. Idempotent. *)
end
