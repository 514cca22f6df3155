(* Shared helpers: clocks, order statistics, process memory, result
   lines and the seed-derived generators every workload draws from. *)

let now = Unix.gettimeofday

(* [seed] plus a per-purpose salt, so the schedule, the lock draws and
   the simulator seeds are independent streams of one workload seed. *)
let rng ~seed salt = Simkit.Rng.create ((seed * 1_000_003) + salt)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* Linear interpolation between closest ranks; [nan] when empty. *)
let quantile_sorted a q =
  let n = Array.length a in
  if n = 0 then nan
  else
    let pos = q *. float_of_int (n - 1) in
    let lo = int_of_float pos in
    let hi = min (n - 1) (lo + 1) in
    let frac = pos -. float_of_int lo in
    a.(lo) +. (frac *. (a.(hi) -. a.(lo)))

let quantile xs q = quantile_sorted (sorted xs) q
let median xs = quantile xs 0.5

let mean = function
  | [] -> nan
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

(* Grant-latency percentile honouring the "at least ten samples beyond
   it" rule: p99 needs 1000 samples. Returns [nan] otherwise. *)
let tail_quantile xs q =
  let n = List.length xs in
  if float_of_int n *. (1.0 -. q) < 10.0 then nan else quantile xs q

(* A live run's [(time, latency)] samples split by time into as many
   equal windows as give each one 1000 samples (ten beyond its p99).
   The run's percentiles are the medians of the per-window figures, so
   a burst of load from a neighbour on a shared host moves one window,
   not the run's result. *)
let windows samples =
  let n = List.length samples in
  let k = max 1 (n / 1000) in
  let ts = List.map fst samples in
  let lo = List.fold_left Float.min infinity ts
  and hi = List.fold_left Float.max neg_infinity ts in
  let width = (hi -. lo) /. float_of_int k in
  let w = Array.make k [] in
  List.iter
    (fun (t, l) ->
      let i = if width > 0.0 then min (k - 1) (truncate ((t -. lo) /. width)) else 0 in
      w.(i) <- l :: w.(i))
    samples;
  Array.to_list w

let windowed_quantile samples q =
  median (List.map (fun w -> quantile w q) (windows samples))

(* Process high-water resident set, from the kernel's own accounting. *)
let peak_rss_mb () =
  try
    let ic = open_in "/proc/self/status" in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let rec go () =
          match input_line ic with
          | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:"
            ->
              Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d"
                (fun kb -> float_of_int kb /. 1024.0)
          | _ -> go ()
          | exception End_of_file -> nan
        in
        go ())
  with Sys_error _ -> nan

(* Bytes allocated so far by every domain of the process (the runtime
   folds each domain's counters into [quick_stat]). *)
let allocated_bytes () =
  let s = Gc.quick_stat () in
  (s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words)
  *. float_of_int (Sys.word_size / 8)

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let rec mkdir_p path =
  if not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    try Unix.mkdir path 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* Three distinct free loopback ports: bind them all to port 0 at once
   so the kernel cannot hand out one twice, then release them. *)
let free_ports k =
  let socks =
    List.init k (fun _ ->
        let s = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        Unix.setsockopt s Unix.SO_REUSEADDR true;
        Unix.bind s (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
        s)
  in
  let ports =
    List.map
      (fun s ->
        match Unix.getsockname s with
        | Unix.ADDR_INET (_, p) -> p
        | Unix.ADDR_UNIX _ -> assert false)
      socks
  in
  List.iter Unix.close socks;
  Array.of_list ports

(* What one workload process reports to run.py: the raw
   numbers, and whether every correctness check held. *)
type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * float) list;
  violations : string list;
}

let json_num v =
  if Float.is_finite v then Dmutex_obs.Json.Num v else Dmutex_obs.Json.Null

let print_result r =
  let open Dmutex_obs.Json in
  List.iter (fun v -> Printf.printf "VIOLATION %s\n" v) r.violations;
  print_endline
    (to_string
       (Obj
          [
            ("correct", Bool r.correct);
            ("attempted", Num (float_of_int r.attempted));
            ("failed", Num (float_of_int r.failed));
            ( "metrics",
              Obj (List.map (fun (k, v) -> (k, json_num v)) r.metrics) );
          ]));
  flush stdout

(* Collected violations of a run's correctness checks; thread-safe. *)
module Checks = struct
  type t = { mu : Mutex.t; mutable found : string list }

  let create () = { mu = Mutex.create (); found = [] }

  let fail t msg =
    Mutex.lock t.mu;
    t.found <- msg :: t.found;
    Mutex.unlock t.mu

  let found t =
    Mutex.lock t.mu;
    let f = List.rev t.found in
    Mutex.unlock t.mu;
    f
end

(* The live workloads' protocol configuration: the stock resilient
   protocol with latency-sized collection and forwarding windows. *)
let live_config n =
  {
    (Dmutex.Resilient.config ~n ()) with
    Dmutex.Types.Config.t_collect = 0.002;
    t_forward = 0.002;
  }

(* Histogram helpers over a merged registry snapshot. *)
let histos (snap : Dmutex_obs.Registry.snapshot) ?(labels = []) name =
  List.filter_map
    (fun ((s : Dmutex_obs.Registry.series), h) ->
      if
        s.name = name
        && List.for_all (fun l -> List.mem l s.labels) labels
      then Some h
      else None)
    snap.histograms

let histo_mean snap ?labels name =
  let hs = histos snap ?labels name in
  let c = List.fold_left (fun a h -> a + h.Dmutex_obs.Registry.h_count) 0 hs in
  if c = 0 then 0.0
  else
    List.fold_left (fun a h -> a +. h.Dmutex_obs.Registry.h_sum) 0.0 hs
    /. float_of_int c

let counter_sum (snap : Dmutex_obs.Registry.snapshot) name =
  List.fold_left
    (fun a ((s : Dmutex_obs.Registry.series), v) ->
      if s.name = name then a + v else a)
    0 snap.counters
