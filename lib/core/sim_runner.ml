open Simkit

type node_stats = { grants : int; dispatches : int; sent : int }

(* A fault schedule, algorithm-independent so one plan can be replayed
   verbatim against dmutex and every baseline. Hosts refuse plans that
   exceed the algorithm's declared [Types.fault_support]. *)
type fault_event =
  | Crash_at of { node : int; at : float; restart_after : float option }
  | Loss_between of { from_ : float; until_ : float; p : float }

type fault_plan = fault_event list

type outcome = {
  algorithm : string;
  n : int;
  rate : float;
  completed : int;
  sim_time : float;
  messages : int;
  messages_per_cs : float;
  by_kind : (string * int) list;
  mean_delay : float;
  delay_ci95 : float;
  max_delay : float;
  forwarded : int;
  forwarded_fraction : float;
  retransmits : int;
  dropped_requests : int;
  monitor_passes : int;
  notes : (string * int) list;
  safety_violations : int;
  unserved : int;
  per_node : node_stats array;
}

let pp_outcome ppf o =
  Format.fprintf ppf
    "@[<v>%s n=%d rate=%g: %d CS in %.1f sim-s@,\
     messages/CS=%.4f (total %d)@,\
     delay: mean=%.4f +/-%.4f max=%.4f@,\
     forwarded=%d (%.4f%% of messages) retransmits=%d drops=%d@,\
     monitor-passes=%d safety-violations=%d unserved=%d@]"
    o.algorithm o.n o.rate o.completed o.sim_time o.messages_per_cs o.messages
    o.mean_delay o.delay_ci95 o.max_delay o.forwarded
    (100.0 *. o.forwarded_fraction)
    o.retransmits o.dropped_requests o.monitor_passes o.safety_violations
    o.unserved

module Make (A : Types.ALGO) = struct
  type node = {
    mutable state : A.state;
    timers : (A.timer, Engine.handle) Hashtbl.t;
    (* Per-(node, kind) timer actions and the per-node CS-exit action
       are allocated once and reused, keeping the per-event path free
       of closure allocation. *)
    timer_actions : (A.timer, Engine.t -> unit) Hashtbl.t;
    mutable on_cs_exit : Engine.t -> unit;
    arrivals : float Queue.t;  (* unserved request arrival times *)
    pm : Dmutex_obs.Protocol_metrics.t option;
    (* per-node view into the run's obs registry, if one was given *)
    mutable current : float option;  (* arrival time of the in-CS request *)
    mutable crashed : bool;
    mutable grants : int;
    mutable dispatches : int;
    mutable sent : int;
  }

  type t = {
    cfg : Types.Config.t;
    engine : Engine.t;
    net : A.message Network.t;
    nodes : node array;
    trace : Trace.t;
    notes : Stats.Counter.t;
    kinds : Stats.Counter.t;
    delays : Stats.Tally.t;
    mutable completed : int;
    mutable arrived : int;
    mutable cs_holders : (int * Types.mode) list;
        (** Nodes currently inside the CS with the mode each entered
            under. Several [Shared] holders may coexist; an [Exclusive]
            holder must be alone. *)
    mutable safety_violations : int;
    mutable target : int option;
    mutable closed_loop : bool;
    mutable on_grant : (node:int -> delay:float -> unit) option;
    mutable read_mix : (float * Rng.t) option;
        (** When set, a request injected without an explicit mode is
            [Shared] with this probability (own RNG stream, so the mix
            does not perturb network or workload draws). *)
  }

  let engine t = t.engine
  let network t = t.net
  let state t i = t.nodes.(i).state

  let rec create ?(seed = 42) ?(trace = Trace.create ()) ?latency ?obs cfg =
    let cfg = Types.Config.validate cfg in
    (* Pre-size the agenda for big-N sweeps: a saturated run keeps on
       the order of a few events per node in flight, so 4n avoids the
       doubling-growth churn at N=1000 without bloating small runs. *)
    let engine =
      Engine.create ~capacity:(max 256 (4 * cfg.Types.Config.n)) ()
    in
    let rng = Rng.create seed in
    let latency =
      match latency with
      | Some l -> l
      | None -> Network.Constant cfg.Types.Config.t_msg
    in
    let net =
      Network.create engine ~n:cfg.Types.Config.n ~rng:(Rng.split rng)
        ~latency
    in
    let nodes =
      Array.init cfg.Types.Config.n (fun i ->
          {
            state = A.init cfg i;
            timers = Hashtbl.create 8;
            timer_actions = Hashtbl.create 8;
            on_cs_exit = ignore;
            arrivals = Queue.create ();
            pm = Option.map Dmutex_obs.Protocol_metrics.create obs;
            current = None;
            crashed = false;
            grants = 0;
            dispatches = 0;
            sent = 0;
          })
    in
    let t =
      {
        cfg;
        engine;
        net;
        nodes;
        trace;
        notes = Stats.Counter.create ();
        kinds = Stats.Counter.create ();
        delays = Stats.Tally.create ();
        completed = 0;
        arrived = 0;
        cs_holders = [];
        safety_violations = 0;
        target = None;
        closed_loop = false;
        on_grant = None;
        read_mix = None;
      }
    in
    Array.iteri (fun i node -> node.on_cs_exit <- (fun _ -> cs_exit t i)) nodes;
    Network.set_handler net (fun ~src ~dst msg ->
        (match t.nodes.(dst).pm with
        | Some pm when src <> dst ->
            Dmutex_obs.Protocol_metrics.received pm ~kind:(A.message_kind msg)
        | Some _ | None -> ());
        dispatch t dst (Types.Receive (src, msg)));
    t

  and dispatch t i input =
    let node = t.nodes.(i) in
    if not node.crashed then begin
      let now = Engine.now t.engine in
      let state', effects = A.handle t.cfg ~now node.state input in
      node.state <- state';
      apply_all t i effects
    end

  (* A direct loop rather than [List.iter (apply t i)], which would
     allocate a partial application per step. *)
  and apply_all t i = function
    | [] -> ()
    | effect :: rest ->
        apply t i effect;
        apply_all t i rest

  and apply t i effect =
    let node = t.nodes.(i) in
    let now = Engine.now t.engine in
    match effect with
    | Types.Send (dst, m) ->
        if dst <> i then begin
          let kind = A.message_kind m in
          Stats.Counter.incr t.kinds kind;
          (match node.pm with
          | Some pm -> Dmutex_obs.Protocol_metrics.sent pm ~kind
          | None -> ());
          node.sent <- node.sent + 1
        end;
        if Trace.enabled t.trace then
          Trace.addf t.trace ~time:now ~node:i ~tag:"send" "-> %d: %a" dst
            A.pp_message m;
        Network.send t.net ~src:i ~dst m
    | Types.Broadcast m ->
        let kind = A.message_kind m in
        Stats.Counter.add t.kinds kind (t.cfg.Types.Config.n - 1);
        (match node.pm with
        | Some pm ->
            Dmutex_obs.Protocol_metrics.sent_many pm ~kind
              (t.cfg.Types.Config.n - 1)
        | None -> ());
        node.sent <- node.sent + t.cfg.Types.Config.n - 1;
        if Trace.enabled t.trace then
          Trace.addf t.trace ~time:now ~node:i ~tag:"broadcast" "%a"
            A.pp_message m;
        Network.broadcast t.net ~src:i m
    | Types.Enter_cs ->
        let mode = A.cs_mode node.state in
        let others = List.filter (fun (j, _) -> j <> i) t.cs_holders in
        (match others with
        | [] -> ()
        | _ when
               mode = Types.Shared
               && List.for_all (fun (_, m) -> m = Types.Shared) others ->
            (* Concurrent readers: legal overlap, not a violation. *)
            ()
        | (j, _) :: _ ->
            t.safety_violations <- t.safety_violations + 1;
            Trace.addf t.trace ~time:now ~node:i ~tag:"VIOLATION"
              "entered CS (%s) while node %d inside"
              (Types.string_of_mode mode) j);
        t.cs_holders <- (i, mode) :: others;
        node.current <- Queue.take_opt node.arrivals;
        (match node.pm with
        | Some pm -> Dmutex_obs.Protocol_metrics.cs_entered pm ~now
        | None -> ());
        Trace.add t.trace ~time:now ~node:i ~tag:"enter-cs" "";
        ignore
          (Engine.schedule t.engine ~delay:t.cfg.Types.Config.t_exec
             node.on_cs_exit)
    | Types.Set_timer (k, d) ->
        (match Hashtbl.find_opt node.timers k with
        | Some h -> Engine.cancel t.engine h
        | None -> ());
        let action =
          match Hashtbl.find_opt node.timer_actions k with
          | Some a -> a
          | None ->
              let a _ =
                Hashtbl.remove node.timers k;
                dispatch t i (Types.Timer_fired k)
              in
              Hashtbl.add node.timer_actions k a;
              a
        in
        let h = Engine.schedule t.engine ~delay:(Float.max d 0.0) action in
        Hashtbl.replace node.timers k h
    | Types.Cancel_timer k -> (
        match Hashtbl.find_opt node.timers k with
        | Some h ->
            Engine.cancel t.engine h;
            Hashtbl.remove node.timers k
        | None -> ())
    | Types.Note n ->
        Stats.Counter.incr t.notes (Types.string_of_note n);
        (match node.pm with
        | Some pm -> (
            Dmutex_obs.Protocol_metrics.note pm (Types.string_of_note n);
            match n with
            | Types.Queue_length k ->
                Dmutex_obs.Protocol_metrics.queue_length pm k
            | Types.Read_batch k ->
                Dmutex_obs.Protocol_metrics.read_batch pm k
            | Types.Phase (p, d) ->
                Dmutex_obs.Protocol_metrics.phase pm ~name:p d
            | _ -> ())
        | None -> ());
        (match n with
        | Types.Queue_length k ->
            node.dispatches <- node.dispatches + 1;
            Stats.Counter.add t.notes "queue-length-sum" k
        | _ -> ())

  and cs_exit t i =
    let node = t.nodes.(i) in
    if not node.crashed then begin
      let now = Engine.now t.engine in
      t.cs_holders <- List.filter (fun (j, _) -> j <> i) t.cs_holders;
      (match node.current with
      | Some arrival ->
          Stats.Tally.add t.delays (now -. arrival);
          (match t.on_grant with
          | Some f -> f ~node:i ~delay:(now -. arrival)
          | None -> ())
      | None -> ());
      (match node.pm with
      | Some pm -> Dmutex_obs.Protocol_metrics.cs_exited pm ~now
      | None -> ());
      node.current <- None;
      node.grants <- node.grants + 1;
      t.completed <- t.completed + 1;
      Trace.add t.trace ~time:now ~node:i ~tag:"exit-cs" "";
      dispatch t i Types.Cs_done;
      if t.closed_loop then request t i;
      match t.target with
      | Some k when t.completed >= k -> Engine.stop t.engine
      | _ -> ()
    end

  and request ?mode t i =
    let node = t.nodes.(i) in
    if not node.crashed then begin
      let mode =
        match mode with
        | Some m -> m
        | None -> (
            match t.read_mix with
            | Some (f, rng) when Rng.uniform rng < f -> Types.Shared
            | _ -> Types.Exclusive)
      in
      t.arrived <- t.arrived + 1;
      Queue.add (Engine.now t.engine) node.arrivals;
      (match node.pm with
      | Some pm ->
          Dmutex_obs.Protocol_metrics.mark_request pm ~now:(Engine.now t.engine)
      | None -> ());
      Trace.add t.trace ~time:(Engine.now t.engine) ~node:i ~tag:"request" "";
      dispatch t i
        (match mode with
        | Types.Exclusive -> Types.Request_cs
        | Types.Shared -> Types.Request_shared_cs)
    end

  let on_grant t f = t.on_grant <- Some f

  let set_read_mix ?(seed = 0x5ead) t fraction =
    if fraction < 0.0 || fraction > 1.0 then
      invalid_arg "Sim_runner.set_read_mix: fraction outside [0, 1]";
    t.read_mix <-
      (if fraction = 0.0 then None else Some (fraction, Rng.create seed))

  let require_crash_support () =
    if not A.fault_support.Types.crash_stop then
      raise
        (Types.Unsupported_fault
           (A.name ^ " does not model crash-stop failures"))

  let require_loss_support () =
    if not A.fault_support.Types.message_loss then
      raise
        (Types.Unsupported_fault (A.name ^ " does not model message loss"))

  let crash t i =
    require_crash_support ();
    let node = t.nodes.(i) in
    node.crashed <- true;
    Network.crash t.net i;
    Hashtbl.iter (fun _ h -> Engine.cancel t.engine h) node.timers;
    Hashtbl.reset node.timers;
    t.cs_holders <- List.filter (fun (j, _) -> j <> i) t.cs_holders;
    node.current <- None;
    Queue.clear node.arrivals;
    Trace.add t.trace ~time:(Engine.now t.engine) ~node:i ~tag:"crash" ""

  let recover t i =
    let node = t.nodes.(i) in
    node.crashed <- false;
    Network.recover t.net i;
    node.state <- A.rejoin t.cfg i;
    Trace.add t.trace ~time:(Engine.now t.engine) ~node:i ~tag:"recover" "";
    (* A closed-loop node lost its request cycle with the crash;
       restart it so recovery cost shows up as delay, not as a
       permanently idle node. *)
    if t.closed_loop then request t i

  let set_loss t p =
    if p > 0.0 then require_loss_support ();
    Network.set_loss t.net p

  let apply_faults t plan =
    (* Validate the whole plan before scheduling anything, so an
       unsupported algorithm fails loudly at injection time rather than
       mid-run. *)
    List.iter
      (function
        | Crash_at { node; at; restart_after } ->
            require_crash_support ();
            if node < 0 || node >= t.cfg.Types.Config.n then
              invalid_arg "Sim_runner.apply_faults: node out of range";
            if at < 0.0 then
              invalid_arg "Sim_runner.apply_faults: negative crash time";
            (match restart_after with
            | Some d when d <= 0.0 ->
                invalid_arg "Sim_runner.apply_faults: restart_after <= 0"
            | _ -> ())
        | Loss_between { from_; until_; p } ->
            if p > 0.0 then require_loss_support ();
            if from_ < 0.0 || until_ <= from_ then
              invalid_arg "Sim_runner.apply_faults: bad loss window";
            if p < 0.0 || p > 1.0 then
              invalid_arg "Sim_runner.apply_faults: loss probability")
      plan;
    List.iter
      (function
        | Crash_at { node; at; restart_after } ->
            ignore
              (Engine.schedule_at t.engine ~time:at (fun _ ->
                   crash t node;
                   match restart_after with
                   | Some d ->
                       ignore
                         (Engine.schedule t.engine ~delay:d (fun _ ->
                              recover t node))
                   | None -> ()))
        | Loss_between { from_; until_; p } ->
            ignore
              (Engine.schedule_at t.engine ~time:from_ (fun _ ->
                   Network.set_loss t.net p));
            ignore
              (Engine.schedule_at t.engine ~time:until_ (fun _ ->
                   Network.set_loss t.net 0.0)))
      plan

  let reset ?(seed = 42) t =
    Engine.reset t.engine;
    Network.reset t.net;
    (* Mirror [create]: the network draws from a split of the seed
       stream, so a reset run replays exactly the delays a fresh
       create with this seed would. *)
    let rng = Rng.create seed in
    Rng.assign ~dst:(Network.rng t.net) ~src:(Rng.split rng);
    Array.iteri
      (fun i node ->
        node.state <- A.init t.cfg i;
        Hashtbl.reset node.timers;
        Queue.clear node.arrivals;
        node.current <- None;
        node.crashed <- false;
        node.grants <- 0;
        node.dispatches <- 0;
        node.sent <- 0)
      t.nodes;
    Trace.clear t.trace;
    Stats.Counter.reset t.notes;
    Stats.Counter.reset t.kinds;
    Stats.Tally.reset t.delays;
    t.completed <- 0;
    t.arrived <- 0;
    t.cs_holders <- [];
    t.safety_violations <- 0;
    t.target <- None;
    t.closed_loop <- false;
    t.read_mix <- None

  let step_until t time = Engine.run ~until:time t.engine

  let unserved t =
    Array.fold_left
      (fun acc node ->
        acc + Queue.length node.arrivals
        + (match node.current with Some _ -> 1 | None -> 0))
      0 t.nodes

  let outcome t =
    let messages = Network.sent t.net in
    let completed = t.completed in
    let div a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b in
    let forwarded = Stats.Counter.get t.notes "forwarded" in
    {
      algorithm = A.name;
      n = t.cfg.Types.Config.n;
      rate = 0.0;
      completed;
      sim_time = Engine.now t.engine;
      messages;
      messages_per_cs = div messages completed;
      by_kind = Stats.Counter.to_list t.kinds;
      mean_delay =
        (if Stats.Tally.count t.delays = 0 then 0.0
         else Stats.Tally.mean t.delays);
      delay_ci95 = Stats.Tally.ci95_halfwidth t.delays;
      max_delay =
        (if Stats.Tally.count t.delays = 0 then 0.0
         else Stats.Tally.max t.delays);
      forwarded;
      forwarded_fraction = div forwarded messages;
      retransmits = Stats.Counter.get t.notes "retransmitted";
      dropped_requests = Stats.Counter.get t.notes "dropped-request";
      monitor_passes = Stats.Counter.get t.notes "monitor-pass";
      notes = Stats.Counter.to_list t.notes;
      safety_violations = t.safety_violations;
      unserved = unserved t;
      per_node =
        Array.map
          (fun node ->
            { grants = node.grants; dispatches = node.dispatches;
              sent = node.sent })
          t.nodes;
    }

  let run_poisson ?(seed = 42) ?(requests = 10_000) ?(rate = 1.0) ?trace
      ?latency ?obs cfg =
    let t =
      match trace with
      | Some tr -> create ~seed ~trace:tr ?latency ?obs cfg
      | None -> create ~seed ?latency ?obs cfg
    in
    t.target <- Some requests;
    let rng = Rng.create (seed lxor 0x5f5f5f) in
    let sources =
      Array.init cfg.Types.Config.n (fun i ->
          let node_rng = Rng.split rng in
          Workload.poisson t.engine ~rng:node_rng ~rate ~on_arrival:(fun _ ->
              request t i))
    in
    Engine.run t.engine;
    Array.iter Workload.stop sources;
    { (outcome t) with rate }

  let saturate ?(requests = 10_000) ?(faults = []) ?until t =
    t.target <- Some requests;
    t.closed_loop <- true;
    apply_faults t faults;
    for i = 0 to t.cfg.Types.Config.n - 1 do
      request t i
    done;
    Engine.run ?until t.engine;
    outcome t

  let run_saturated ?(seed = 42) ?(requests = 10_000) ?read_fraction ?trace
      ?latency ?obs cfg =
    let t =
      match trace with
      | Some tr -> create ~seed ~trace:tr ?latency ?obs cfg
      | None -> create ~seed ?latency ?obs cfg
    in
    (match read_fraction with
    | Some f -> set_read_mix ~seed:(seed lxor 0x5ead) t f
    | None -> ());
    saturate ~requests t
end

let replicate ~runs f =
  if runs <= 0 then invalid_arg "Sim_runner.replicate: runs must be positive";
  let outcomes = List.init runs (fun k -> f ~seed:(1000 + (7919 * k))) in
  let tally = Stats.Tally.create () in
  List.iter (fun o -> Stats.Tally.add tally o.messages_per_cs) outcomes;
  (outcomes, (Stats.Tally.mean tally, Stats.Tally.ci95_halfwidth tally))
