(* What the simulation workloads share: reading a run's durable
   journal back, checking every journaled switch, the flight-recorder
   attribution, and the action counts. *)

open Entropy_core
module Journal = Entropy_journal.Journal
module Record = Entropy_journal.Record
module Critical = Entropy_flight.Critical

(* Every journaled switch: its plan replayed from its source ending in
   the target, its cost re-derived, and its target within capacity
   under the demand it was decided on. Two program faults are kept
   apart from the other failures (see the FOUND lines in CHANGES.md): a
   committed plan that does not replay to its target, and a salvage
   repair target left over capacity by the switch it repairs. Either
   fails every operation of the batch or episode it strikes. *)
type switch_report = {
  failures : string list;
  invalid_plans : string list;
  overcap_repairs : string list;
}

let switch_checks ~what ~repairs records =
  List.fold_left
    (fun acc r ->
      match r with
      | Record.Switch_begin { switch; source; target; plan; demand; _ } ->
        let what = Printf.sprintf "%s switch %d" what switch in
        let capacity = Checks.within_capacity ~what:(what ^ " target") target demand in
        let replay = Checks.reaches_target ~what ~source ~target plan in
        let capacity, overcap =
          if List.mem switch repairs then ([], capacity) else (capacity, [])
        in
        {
          failures =
            acc.failures @ capacity
            @ Checks.cost_matches ~what ~source ~reported:(Plan.cost source plan) plan;
          invalid_plans = acc.invalid_plans @ replay;
          overcap_repairs = acc.overcap_repairs @ overcap;
        }
      | _ -> acc)
    { failures = []; invalid_plans = []; overcap_repairs = [] }
    records

type actions = {
  migrations : int;
  suspends : int;
  resumes : int;
  local_resumes : int;
  failed : int;
  plan_actions : int;
  plan_pools : int;
  switches : int;
  plan_cost : int;
}

let actions records =
  List.fold_left
    (fun a r ->
      match r with
      | Record.Action_done { action = Action.Migrate _; _ } ->
        { a with migrations = a.migrations + 1 }
      | Record.Action_done { action = Action.Suspend _ | Action.Suspend_ram _; _ }
        -> { a with suspends = a.suspends + 1 }
      | Record.Action_done { action = Action.Resume { src; dst; _ }; _ } ->
        {
          a with
          resumes = a.resumes + 1;
          local_resumes = (a.local_resumes + if src = dst then 1 else 0);
        }
      | Record.Action_done { action = Action.Resume_ram _; _ } ->
        { a with resumes = a.resumes + 1; local_resumes = a.local_resumes + 1 }
      | Record.Action_failed _ -> { a with failed = a.failed + 1 }
      | Record.Switch_begin { source; plan; _ } ->
        {
          a with
          plan_actions = a.plan_actions + Plan.action_count plan;
          plan_pools = a.plan_pools + Plan.pool_count plan;
          switches = a.switches + 1;
          plan_cost = a.plan_cost + Checks.plan_cost source plan;
        }
      | _ -> a)
    {
      migrations = 0; suspends = 0; resumes = 0; local_resumes = 0; failed = 0;
      plan_actions = 0; plan_pools = 0; switches = 0; plan_cost = 0;
    }
    records

let add_actions a b =
  {
    migrations = a.migrations + b.migrations;
    suspends = a.suspends + b.suspends;
    resumes = a.resumes + b.resumes;
    local_resumes = a.local_resumes + b.local_resumes;
    failed = a.failed + b.failed;
    plan_actions = a.plan_actions + b.plan_actions;
    plan_pools = a.plan_pools + b.plan_pools;
    switches = a.switches + b.switches;
    plan_cost = a.plan_cost + b.plan_cost;
  }

type journal_read = {
  record_count : int;
  actions : actions;
  bytes : int;
  buckets : Critical.buckets;  (* summed over switches *)
  no_barrier_s : float;
  switch_time_s : float;  (* summed journaled switch spans *)
  flight_failures : string list;
  switches : switch_report;
}

(* Load a closed journal file, analyse it with the flight recorder,
   check the attribution against the spans read off the records, and
   check every journaled switch. Returns the records with their summary;
   a round keeps only the summary, so the records do not add to the
   peak heap of later items. *)
let read ~what path =
  let records, _torn =
    Span.with_ "journal.load" (fun () -> Journal.load path)
  in
  let analyses =
    Span.with_ "flight.analyze" (fun () ->
        Entropy_flight.Report.analyze_records records)
  in
  let spans = Checks.switch_spans records in
  let flight_failures =
    List.concat_map
      (fun ((_, c) : Entropy_flight.Report.analysis) ->
        Checks.buckets_sum ~what ~spans ~switch:c.Critical.switch
          ~bucket_total:(Critical.bucket_total c.Critical.buckets))
      analyses
  in
  ( records,
    {
    record_count = List.length records;
    actions = actions records;
    bytes = (Unix.stat path).Unix.st_size;
    buckets =
      List.fold_left
        (fun acc ((_, c) : Entropy_flight.Report.analysis) ->
          Critical.add_buckets acc c.Critical.buckets)
        Critical.zero_buckets analyses;
    no_barrier_s =
      Bench.sum
        (fun ((_, c) : Entropy_flight.Report.analysis) ->
          c.Critical.no_barrier_makespan_s)
        analyses;
    switch_time_s = Bench.sum (fun (_, (b, last)) -> last -. b) spans;
    flight_failures;
    switches =
      switch_checks ~what
        ~repairs:(Critical.repair_switches (List.map fst analyses))
        records;
    } )

(* The journal layer's own costs, measured on a run's records: replay
   them as recovery would, and re-append them to a fresh file journal. *)
let journal_layer records =
  ignore
    (Span.with_ "journal.replay" (fun () ->
         Entropy_journal.Recovery.replay records));
  let copy = Bench.scratch_file "reappend.wal" in
  Span.with_ "journal.append" (fun () ->
      let j = Journal.open_file copy in
      List.iter (Journal.append j) records;
      Journal.close j)

let flight_layers (b : Critical.buckets) no_barrier_s =
  [
    ("flight.work_s", b.Critical.work_s);
    ("flight.contention_s", b.Critical.contention_s);
    ("flight.barrier_s", b.Critical.barrier_s);
    ("flight.dependency_s", b.Critical.dependency_s);
    ("flight.retry_s", b.Critical.retry_s);
    ("flight.recovery_s", b.Critical.recovery_s);
    ("flight.no_barrier_makespan_s", no_barrier_s);
  ]

let action_layers (a : actions) =
  let fi = float_of_int in
  [
    ("sim.switches", fi a.switches); ("sim.migrations", fi a.migrations);
    ("sim.suspends", fi a.suspends); ("sim.resumes", fi a.resumes);
    ("sim.local_resume_ratio",
      if a.resumes = 0 then 0. else fi a.local_resumes /. fi a.resumes);
    ("core.plan_actions", fi a.plan_actions); ("core.plan_pools", fi a.plan_pools);
    ("fault.action_failures", fi a.failed);
  ]
