(* Isolated layer kernels: one layer's hot operation timed alone, each
   in its own process (run.py starts one per kernel), so no
   earlier section's heap or caches can inflate it. Each reports the
   median over timed batches of the per-operation time. *)

(* How long each kernel is timed, after its warm-up. *)
let seconds = 0.5

(* Median seconds per call of [f] over batches of [batch] calls, after
   a short warm-up, for about [seconds]. *)
let time_per_op ?(batch = 1000) f =
  let stop = Common.now () +. 0.05 in
  while Common.now () < stop do
    f ()
  done;
  let samples = ref [] in
  let stop = Common.now () +. seconds in
  while Common.now () < stop do
    let t0 = Common.now () in
    for _ = 1 to batch do
      f ()
    done;
    samples := ((Common.now () -. t0) /. float_of_int batch) :: !samples
  done;
  Common.median !samples

(* The token message that dominates traffic, with a 10-entry Q-list. *)
let privilege =
  Dmutex.Protocol.Privilege
    {
      Dmutex.Protocol.tq =
        List.init 10 (fun i -> Dmutex.Qlist.entry ~node:i ~seq:4 ());
      granted = Array.make 10 3;
      epoch = 1;
      election = 99;
      vepoch = 0;
    }

(* Four shared entries at the head, then alternating modes, ending in
   a shared run: [head_batch] walks the prefix, [final_holder] the tail. *)
let qlist10 =
  List.init 10 (fun i ->
      let mode =
        if i < 4 || i >= 7 || i mod 2 = 0 then Dmutex.Types.Shared
        else Dmutex.Types.Exclusive
      in
      Dmutex.Qlist.entry ~mode ~node:i ~seq:i ())

let run ~name ~dir =
  let value, unit_ =
    match name with
    | "store_record_us" ->
        let d = Filename.concat dir (Printf.sprintf "kernel-store-%d" (Unix.getpid ())) in
        Common.rm_rf d;
        let st = Dmutex_store.Store.open_ ~dir:d ~n:3 () in
        let v = ref (Dmutex_store.Store.empty_view ~n:3) in
        let per =
          time_per_op ~batch:1 (fun () ->
              v := { !v with Dmutex_store.Store.next_seq = !v.next_seq + 1 };
              Dmutex_store.Store.record st !v)
        in
        Dmutex_store.Store.close st;
        Common.rm_rf d;
        (per *. 1e6, "us")
    | "codec_privilege_ns" ->
        ( time_per_op (fun () ->
              ignore
                (Wire.Protocol_codec.decode (Wire.Protocol_codec.encode privilege)))
          *. 1e9,
          "ns" )
    | "wire_client_ns" ->
        let req =
          Wire.Client.Acquire
            { rid = 41; lock = "cold-17"; timeout_ms = 30_000; try_only = false; shared = false }
        and resp = Wire.Client.Granted { rid = 41; lock = "cold-17"; fencing = 1 lsl 40 } in
        ( time_per_op (fun () ->
              ignore (Wire.Client.decode_request (Wire.Client.encode_request req));
              ignore (Wire.Client.decode_response (Wire.Client.encode_response resp)))
          *. 1e9,
          "ns" )
    | "session_frame_us" ->
        let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        let msg =
          Wire.Client.encode_response
            (Wire.Client.Granted { rid = 41; lock = "cold-17"; fencing = 1 lsl 40 })
        in
        let per =
          time_per_op ~batch:100 (fun () ->
              Netkit.Session_frame.send a msg;
              ignore (Netkit.Session_frame.recv b))
        in
        Unix.close a;
        Unix.close b;
        (per *. 1e6, "us")
    | "qlist_head_batch_ns" ->
        (time_per_op (fun () -> ignore (Dmutex.Qlist.head_batch qlist10)) *. 1e9, "ns")
    | "qlist_final_holder_ns" ->
        ( time_per_op (fun () -> ignore (Dmutex.Qlist.final_holder qlist10)) *. 1e9,
          "ns" )
    | _ -> invalid_arg ("unknown kernel " ^ name)
  in
  print_endline
    (Dmutex_obs.Json.to_string
       (Dmutex_obs.Json.Obj
          [
            ("name", Dmutex_obs.Json.Str ("kernel." ^ name));
            ("value", Dmutex_obs.Json.Num value);
            ("unit", Dmutex_obs.Json.Str unit_);
          ]))
