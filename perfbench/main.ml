(* Fixed-work controller benchmark: see README.md.

     main.exe --workload NAME --seed N --seconds S --trace 0|1
     main.exe --workload NAME --repeat K [--seed N] [--seconds S]
     main.exe selftest

   One run generates its inputs from the seed, then repeats whole
   rounds of the workload for the given seconds, checks every round's
   outputs and prints a table followed by one JSON line. Exit code 1
   when any check failed. *)

let e2e_metrics =
  [ ("setup_s", "s"); ("peak_heap_mb", "MB"); ("run_wall_s", "s") ]

let layer_metrics =
  [
    ("workload.generate_s", "s");
    ("core.rjsp_s", "s"); ("core.rjsp_calls", "count");
    ("cp.search_s", "s"); ("cp.nodes", "count"); ("cp.fails", "count");
    ("cp.nodes_per_s", "1/s"); ("cp.improved_ratio", "ratio");
    ("place.sa_s", "s"); ("place.sa_steps_per_s", "1/s");
    ("place.sa_accept_ratio", "ratio"); ("place.lns_s", "s");
    ("place.lns_rounds_per_s", "1/s"); ("place.lns_improve_ratio", "ratio");
    ("place.materialise_s", "s");
    ("core.planner_s", "s"); ("core.plan_actions", "count");
    ("core.invalid_plans", "count");
    ("core.plan_pools", "count");
    ("analysis.verify_s", "s");
    ("core.decide_s", "s"); ("core.decide_calls", "count");
    ("sim.loop_s", "s"); ("sim.iterations", "count"); ("sim.switches", "count");
    ("sim.migrations", "count"); ("sim.suspends", "count");
    ("sim.resumes", "count"); ("sim.local_resume_ratio", "ratio");
    ("sim.vjobs_per_s", "1/s"); ("sim.unterminated_vjobs", "count");
    ("journal.records", "count"); ("journal.bytes", "B");
    ("journal.append_s", "s"); ("journal.load_s", "s");
    ("journal.replay_s", "s");
    ("flight.analyze_s", "s"); ("flight.work_s", "s");
    ("flight.contention_s", "s"); ("flight.barrier_s", "s");
    ("flight.dependency_s", "s"); ("flight.retry_s", "s");
    ("flight.recovery_s", "s"); ("flight.no_barrier_makespan_s", "s");
    ("daemon.rounds", "count"); ("daemon.deferred_rounds", "count");
    ("daemon.ladder_ups", "count"); ("daemon.ladder_downs", "count");
    ("daemon.triggers_raised", "count"); ("daemon.triggers_coalesced", "count");
    ("daemon.max_queue_depth", "count"); ("daemon.rejected", "count");
    ("daemon.resume_s", "s"); ("daemon.resume_crashes", "count");
    ("fault.action_failures", "count"); ("fault.repairs", "count");
    ("fault.overcap_repair_targets", "count");
    ("scheduler.static_makespan_s", "s");
    ("trace.overhead_s", "s");
    ("outcome.plan_cost_mb", "MB"); ("outcome.switch_time_s", "s");
    ("outcome.completion_makespan_s", "s");
    ("outcome.mean_bounded_slowdown", "ratio");
    ("outcome.queue_wait_p50_s", "s"); ("outcome.queue_wait_p95_s", "s");
  ]

let workloads = [ "fig10-decide"; "nasgrid-batch"; "daemon-soak" ]

(* Fill a workload's values into the fixed metric list: a layer the
   workload does not exercise reads 0. *)
let complete spec values =
  List.map
    (fun (name, unit_) ->
      Bench.m name unit_ (Option.value ~default:0. (List.assoc_opt name values)))
    spec

let run_workload ~workload ~seed ~seconds ~trace =
  let (o : Bench.run_out) =
    match workload with
    | "fig10-decide" -> Run_fig10.run ~seed ~seconds ~trace
    | "nasgrid-batch" -> Run_nasgrid.run ~seed ~seconds ~trace
    | "daemon-soak" -> Run_daemon.run ~seed ~seconds ~trace
    | w -> invalid_arg ("unknown workload " ^ w)
  in
  {
    Bench.attempted = o.ops;
    failed = o.ops_failed;
    failures = o.check_failures;
    failed_items = o.failed_items;
    e2e = complete e2e_metrics o.e2e_values;
    layers =
      complete layer_metrics
        (o.layer_values
        @ List.filter_map
            (fun (n, _, exact, v) -> if exact then Some ("outcome." ^ n, v) else None)
            o.outcomes);
    extra =
      List.map (fun (n, u, exact, v) -> (Bench.m n u v, exact)) o.outcomes
      @ [ (Bench.m "reference_ms" "ms" (1000. *. Bench.median !Bench.reference_times), false) ];
  }

let report ~workload ~trace (r : Bench.result) =
  Printf.printf "workload %s: %d operations attempted, %d failed\n" workload
    r.Bench.attempted r.Bench.failed;
  Bench.print_table "end-to-end" r.Bench.e2e;
  if r.Bench.extra <> [] then
    Bench.print_table "outcomes" (List.map fst r.Bench.extra);
  if trace then Bench.print_table "per layer (traced run)" r.Bench.layers;
  List.iter (Printf.printf "OPERATIONS FAILED: %s\n") r.Bench.failed_items;
  List.iter (Printf.printf "CHECK FAILED: %s\n") r.Bench.failures

(* Repeat mode: [k] runs of one workload on the same seed; prints the
   quartiles of every metric and checks that the deterministic
   outcomes repeat exactly. *)
let repeat ~workload ~seed ~seconds ~k =
  let runs =
    List.init k (fun _ -> run_workload ~workload ~seed ~seconds ~trace:false)
  in
  let failures = List.concat_map (fun r -> r.Bench.failures) runs in
  Printf.printf "workload %s, seed %d, %d runs\n" workload seed k;
  Printf.printf "  %-34s %14s %14s %14s\n" "metric" "q1" "median" "q3";
  let names = List.map (fun (m : Bench.metric) -> (m.name, m.unit_)) in
  let first = List.hd runs in
  List.iter
    (fun (name, unit_) ->
      let vs =
        List.map
          (fun r ->
            (List.find (fun (m : Bench.metric) -> m.name = name)
               (r.Bench.e2e @ List.map fst r.Bench.extra)).value)
          runs
      in
      let q1, med, q3 = Bench.quartiles vs in
      Printf.printf "  %-34s %14.6f %14.6f %14.6f %s\n" name q1 med q3 unit_)
    (names first.Bench.e2e @ names (List.map fst first.Bench.extra));
  let exact =
    List.filter_map
        (fun ((m : Bench.metric), exact) -> if exact then Some m.name else None)
        first.Bench.extra
  in
  let drift =
    List.filter
      (fun name ->
        let value r =
          List.find_opt (fun (m : Bench.metric) -> m.name = name)
            (r.Bench.e2e @ List.map fst r.Bench.extra)
        in
        List.exists (fun r -> value r <> value first) runs)
      exact
  in
  List.iter (Printf.printf "NOT REPEATED EXACTLY: %s\n") drift;
  List.iter (Printf.printf "CHECK FAILED: %s\n") failures;
  if failures = [] && drift = [] then 0 else 1

let usage () =
  prerr_endline
    "usage: main.exe --workload NAME --seed N --seconds S --trace 0|1 \
     [--repeat K] [--spans FILE] | selftest";
  exit 2

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  if args = [ "selftest" ] then exit (Selftest.run ())
  else
    let rec parse acc = function
      | flag :: v :: rest when String.length flag > 2 && String.sub flag 0 2 = "--"
        -> parse ((flag, v) :: acc) rest
      | [] -> acc
      | _ -> usage ()
    in
    let opts = parse [] args in
    let get flag = List.assoc_opt flag opts in
    let int_of flag default =
      match get flag with
      | None -> default
      | Some v -> ( match int_of_string_opt v with Some i -> i | None -> usage ())
    in
    let workload = match get "--workload" with Some w -> w | None -> usage () in
    if not (List.mem workload workloads) then usage ();
    let seed = int_of "--seed" 0 in
    let seconds = float_of_int (int_of "--seconds" 10) in
    let trace = int_of "--trace" 0 = 1 in
    match get "--repeat" with
    | Some _ -> exit (repeat ~workload ~seed ~seconds ~k:(int_of "--repeat" 5))
    | None ->
      let r = run_workload ~workload ~seed ~seconds ~trace in
      Option.iter Span.write (get "--spans");
      report ~workload ~trace r;
      print_endline (Bench.json_of_result ~trace r);
      exit (if r.Bench.failures = [] then 0 else 1)
