(* Seed determinism of the benchmark's inputs: the same seed gives the
   same lab message counts and the same arrival schedule and lock draws;
   another seed gives another schedule. Exits non-zero on a mismatch. *)

let check name ok =
  Printf.printf "%s %s\n" (if ok then "ok  " else "FAIL") name;
  if not ok then exit 1

let run () =
  let counts seed = Lab_sim.message_counts ~n:30 ~seed () in
  check "lab-sim: same seed, same per-algorithm message counts"
    (counts 7 = counts 7);
  let sched seed = Node_durable.schedule ~seed ~duration:5.0 in
  let a = sched 7 in
  check "node-durable: schedule is non-trivial" (Array.length a > 1000);
  check "node-durable: same seed, same arrival schedule" (a = sched 7);
  check "node-durable: another seed, another schedule" (a <> sched 8);
  let calls seed = Session_cold.schedule ~seed ~duration:5.0 0 in
  check "session-cold: same seed, same calls" (calls 7 = calls 7);
  check "session-cold: another seed, other calls" (calls 7 <> calls 8)
