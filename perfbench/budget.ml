(* The traced run's latency budget: one grant's time split into the
   self time of each layer it passed through on the requesting side.
   The remainder is unexplained: the request's time away from the
   requesting node (network hops, the arbiter's collection window and
   steps, the token hop) and thread wake-ups. Times in seconds. *)

type t = {
  grant : float;  (** Due (or call) → grant: the end-to-end latency. *)
  gen : float;  (** Generator: due → the acquire call. *)
  session : float;  (** Client library, session frames, serve thread, pump. *)
  node : float;  (** node_runner around the protocol steps. *)
  step : float;  (** The request step and the CS-entry step. *)
  store : float;  (** WAL append + fsync in those two steps. *)
  wire : float;  (** Codec encode/decode in those two steps. *)
}

let metrics budget =
  let mean f = 1000.0 *. Common.mean (List.map f budget) in
  let grant = mean (fun b -> b.grant)
  and gen = mean (fun b -> b.gen)
  and session = mean (fun b -> b.session)
  and node = mean (fun b -> b.node)
  and step = mean (fun b -> b.step)
  and store = mean (fun b -> b.store)
  and wire = mean (fun b -> b.wire) in
  let explained = gen +. session +. node +. step +. store +. wire in
  [
    ("budget.grant_ms", grant);
    ("budget.gen_ms", gen);
    ("budget.session_ms", session);
    ("budget.node_ms", node);
    ("budget.protocol_step_ms", step);
    ("budget.store_ms", store);
    ("budget.wire_ms", wire);
    ("budget.unexplained_ms", grant -. explained);
  ]

let print ~workload metrics =
  let rows =
    List.filter_map
      (fun (k, v) ->
        if String.starts_with ~prefix:"budget." k then
          Some (String.sub k 7 (String.length k - 7), v)
        else None)
      metrics
  in
  if rows <> [] then begin
    Printf.printf "budget %s (mean ms per grant, requesting side):\n" workload;
    List.iter (fun (k, v) -> Printf.printf "  %-26s %9.4f\n" k v) rows
  end
