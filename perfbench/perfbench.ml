(* Entry point of the benchmark's workload processes; run.py starts one
   per workload run, traced sub-run and kernel. *)

let usage () =
  prerr_endline
    "usage: perfbench.exe workload NAME --seed N --seconds S [--trace] \
     [--nproc K] [--out DIR]\n\
    \       perfbench.exe kernel NAME [--out DIR]\n\
    \       perfbench.exe selftest";
  exit 2

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let rec opt name = function
    | k :: v :: _ when k = name -> Some v
    | _ :: rest -> opt name rest
    | [] -> None
  in
  let num name default conv =
    match opt name args with Some v -> conv v | None -> default
  in
  let dir () =
    let d = Option.value ~default:".bench_out" (opt "--out" args) in
    Common.mkdir_p d;
    d
  in
  match args with
  | "workload" :: name :: _ ->
      let seed = num "--seed" 1 int_of_string in
      let seconds = num "--seconds" 10.0 float_of_string in
      let trace = List.mem "--trace" args in
      let dir = dir () in
      let result =
        match name with
        | "lab-sim" -> Lab_sim.run ~trace ~seed ~seconds
        | "node-durable" -> Node_durable.run ~trace ~seed ~seconds ~dir
        | "session-cold" ->
            let callers = min (num "--nproc" 2 int_of_string) Session_cold.n in
            Session_cold.run ~trace ~seed ~seconds ~callers
        | _ -> usage ()
      in
      if trace then begin
        Budget.print ~workload:name result.Common.metrics;
        let file =
          Filename.concat dir (Printf.sprintf "trace-%s-%d.jsonl" name seed)
        in
        Spans.write_jsonl file
          ~header:
            (Dmutex_obs.Json.Obj
               [
                 ("workload", Dmutex_obs.Json.Str name);
                 ("seed", Dmutex_obs.Json.Num (float_of_int seed));
               ]);
        Printf.printf "spans written to %s\n" file
      end;
      Common.print_result result;
      exit (if result.Common.correct then 0 else 1)
  | "kernel" :: name :: _ ->
      Kernels.run ~name ~dir:(dir ())
  | [ "selftest" ] -> Selftest.run ()
  | _ -> usage ()
