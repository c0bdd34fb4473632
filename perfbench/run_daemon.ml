(* daemon-soak: an open loop of bursty MMPP arrivals into entropyd on
   its default configuration (24 nodes, 200 submissions, calm rate
   1/60 per s, burst rate 0.25 per s, admission cap 64, 10% per-attempt
   action failures), with scripted node crashes, a durable file journal
   and the FFD incumbent on every ladder rung. Each episode also runs
   again killed half-way and resumed from its journal. A round runs
   every episode once. Submissions are the operations. *)

open Run_common
module Daemon = Entropy_daemon.Daemon
module Journal = Entropy_journal.Journal
module Record = Entropy_journal.Record

let seeded_episodes = 3
let crashes = 2
let defaults = { Daemon.default_config with crashes; deterministic = true }

(* an admission cap no episode reaches *)
let roomy_cap = defaults.Daemon.submissions + 1

(* The pinned episodes are the same in every run whatever the seed, and
   each fails operations through a program fault every time:
   - the daemon's defaults on seed 0: the Defer rung answers queue
     backlog by holding admission, so the queue reaches cap - 1 and 4
     later arrivals are rejected; each rejection is a failed operation;
   - daemon seed 6530, cap out of reach: a salvage repair after a failed
     action leaves its target over a node's CPU capacity;
   - daemon seed 6601, cap out of reach: the resume after the kill
     raises Rgraph.Unreachable.
   Each of the last two fails all its submissions.
   The seeded episodes draw their instances and arrivals from the run's
   seed, with the cap out of reach and no injected action failures.
   How many submissions the Defer fault rejects, and whether a salvage
   repair overfills a node (about one episode in five at 10% action
   failures), vary with the seed; a failed share must not. They keep the
   node crashes and the kill/resume. *)
let pinned =
  [
    defaults;
    { defaults with seed = 6530; admission_cap = roomy_cap };
    { defaults with seed = 6601; admission_cap = roomy_cap };
  ]

let configs seed =
  pinned
  @ List.init seeded_episodes (fun e ->
        {
          defaults with
          seed = (seed * 64) + e + 1;
          admission_cap = roomy_cap;
          fail_rate = 0.;
        })

(* The arrival schedule each episode's daemon regenerates from its
   seed: the benchmark's own copy, against which the journal's
   Submission records are checked. *)
let arrivals (c : Daemon.config) =
  Vworkload.Arrivals.times
    {
      Vworkload.Arrivals.seed = c.Daemon.seed;
      count = c.Daemon.submissions;
      base_rate = c.Daemon.base_rate;
      burst_rate = c.Daemon.burst_rate;
      mean_calm_s = c.Daemon.mean_calm_s;
      mean_burst_s = c.Daemon.mean_burst_s;
    }

type episode = {
  config : Daemon.config;
  arrivals : float list;
  report : Daemon.report;
  read : Episode.journal_read;
  killed : Daemon.report;
  resumed : (Daemon.report, string) result;
      (* [Error] when the resumed daemon raised: a program fault that
         fails every submission of the episode *)
  wall : float;
  resume_s : float;
  waits : float list;  (* queue wait of every admitted submission *)
  journal : Record.t list;
      (* kept for the rest of the round: the peak heap then covers every
         episode's journal, which varies less with the seed than the
         largest single episode does *)
  failures : string list;  (* check failures, first round only *)
}

(* Whether this round's episodes are checked: the first round only. *)
let checking = ref false

(* Queue wait of every admitted submission: from its Queued record to
   its Admitted record. *)
let queue_waits records =
  let queued = Hashtbl.create 256 in
  List.filter_map
    (function
      | Record.Submission { vjob; at_s; disposition = Record.Queued; _ } ->
        if not (Hashtbl.mem queued vjob) then Hashtbl.replace queued vjob at_s;
        None
      | Record.Submission { vjob; at_s; disposition = Record.Admitted; _ } ->
        Option.map (fun q -> at_s -. q) (Hashtbl.find_opt queued vjob)
      | _ -> None)
    records

let admitted_vms records =
  List.fold_left
    (fun acc (vjob, ds) ->
      if List.mem Record.Admitted ds then
        acc
        + List.fold_left
            (fun n r ->
              match r with
              | Record.Submission { vjob = v; vms; _ } when v = vjob -> max n vms
              | _ -> n)
            0 records
      else acc)
    0 (Checks.dispositions records)

let check_episode i ep ~records ~resume_records =
  let what = Printf.sprintf "episode %d" i in
  let r = ep.report in
  let submitted =
    List.filter_map
      (function
        | Record.Submission { vjob; at_s; disposition = Record.Queued | Record.Rejected _; _ } ->
          Some (vjob, at_s)
        | _ -> None)
      records
  in
  let schedule = Array.of_list ep.arrivals in
  List.concat_map
    (fun (vjob, at_s) ->
      if vjob >= 0 && vjob < Array.length schedule
         && Float.abs (schedule.(vjob) -. at_s) <= 1e-6
      then []
      else [ Printf.sprintf "%s: submission %d off its arrival schedule" what vjob ])
    submitted
  @ Checks.settles_once ~what records
  @ Checks.queue_below_cap ~what ~cap:ep.config.Daemon.admission_cap records
  @ Checks.within_capacity ~what:(what ^ " final") r.Daemon.final_config
      (Entropy_core.Demand.uniform
         ~vm_count:(Entropy_core.Configuration.vm_count r.Daemon.final_config) 0)
  @ Checks.admitted_terminated ~what ~admitted_vms:(admitted_vms records)
      r.Daemon.final_config
  @ ep.read.Episode.switches.Episode.failures
  @ ep.read.Episode.flight_failures
  @ (if ep.killed.Daemon.killed then [] else [ what ^ ": the kill did not land mid-episode" ])
  @ (if r.Daemon.rejected > 0 && ep.config.Daemon.admission_cap = roomy_cap then
       [ Printf.sprintf "%s: %d rejections under a cap out of reach" what r.Daemon.rejected ]
     else [])
  @
  match ep.resumed with
  | Error _ -> []
  | Ok resumed ->
    Checks.settles_once ~what:(what ^ " resumed") resume_records
    @ Checks.admitted_terminated ~what:(what ^ " resumed")
        ~admitted_vms:(admitted_vms resume_records) resumed.Daemon.final_config

let run_episode e (config, arrivals) =
  let path = Bench.scratch_file (Printf.sprintf "daemon-%d.wal" e) in
  let kpath = Bench.scratch_file (Printf.sprintf "daemon-%d-killed.wal" e) in
  let report, run_wall =
    Bench.scaled (fun () ->
        let j = Journal.open_file path in
        let report = Span.with_ "daemon.run" (fun () -> Daemon.run ~journal:j config) in
        Journal.close j;
        report)
  in
  let killed, killed_wall =
    Bench.scaled (fun () ->
        let kj = Journal.open_file kpath in
        let killed =
          Span.with_ "daemon.run" (fun () ->
              Daemon.run ~journal:kj
                { config with kill_at = Some (report.Daemon.makespan /. 2.) })
        in
        Journal.close kj;
        killed)
  in
  let resumed, resume_s =
    Bench.scaled (fun () ->
        Span.with_ "daemon.resume" (fun () ->
            let records, _ = Journal.load kpath in
            let rj = Journal.open_file kpath in
            let r =
              match Daemon.resume ~journal:rj ~records config with
              | r -> Ok r
              | exception (Entropy_core.Rgraph.Unreachable _ as e) ->
                Error (Printexc.to_string e)
            in
            Journal.close rj;
            r))
  in
  let records, read = Episode.read ~what:(Printf.sprintf "episode %d" e) path in
  Episode.journal_layer records;
  let ep =
    {
      config; arrivals; report; read; killed; resumed;
      wall = run_wall +. killed_wall +. resume_s; resume_s;
      waits = queue_waits records; journal = records; failures = [];
    }
  in
  if not !checking then ep
  else
    (* the killed run's journal with the resume's appends *)
    let resume_records, _ = Journal.load kpath in
    { ep with failures = check_episode e ep ~records ~resume_records }

let fingerprint eps =
  String.concat " "
    (List.map
       (fun ep ->
         Printf.sprintf "%.6f/%d/%d/%s" ep.report.Daemon.makespan
           ep.report.Daemon.rejected ep.report.Daemon.switches
           (match ep.resumed with
           | Ok r -> Printf.sprintf "%.6f" r.Daemon.makespan
           | Error e -> e))
       eps)

let run ~seed ~seconds ~trace =
  let inputs, setup_s =
    Bench.setup ~per_rep:200 (fun () ->
        List.map (fun c -> (c, arrivals c)) (configs seed))
  in
  checking := true;
  let d =
    drive ~seconds ~trace
      ~round:(fun () ->
        let eps = List.mapi run_episode inputs in
        checking := false;
        (eps, List.map (fun ep -> ep.wall) eps))
      ~fingerprint ~check:(List.concat_map (fun ep -> ep.failures))
  in
  let eps = d.first in
  let wall = fastest_wall d in
  let isum f = List.fold_left (fun acc ep -> acc + f ep.report) 0 eps in
  let acts =
    List.fold_left Episode.add_actions (Episode.actions [])
      (List.map (fun ep -> ep.read.Episode.actions) eps)
  in
  let waits = List.concat_map (fun ep -> ep.waits) eps in
  let submissions = isum (fun r -> r.Daemon.submissions) in
  let rejected = isum (fun r -> r.Daemon.rejected) in
  let completed = isum (fun r -> r.Daemon.completed) in
  let makespan =
    Bench.sum (fun ep -> ep.report.Daemon.makespan) eps /. fi (List.length eps)
  in
  let switch_s = Bench.sum (fun ep -> ep.read.Episode.switch_time_s) eps in
  let buckets =
    List.fold_left
      (fun acc ep -> Entropy_flight.Critical.add_buckets acc ep.read.Episode.buckets)
      Entropy_flight.Critical.zero_buckets eps
  in
  let times =
    layer_times d
      [
        ("sim.loop_s", [ "daemon.run" ]); ("daemon.resume_s", [ "daemon.resume" ]);
        ("journal.load_s", [ "journal.load" ]);
        ("journal.replay_s", [ "journal.replay" ]);
        ("journal.append_s", [ "journal.append" ]);
        ("flight.analyze_s", [ "flight.analyze" ]);
      ]
  in
  let p50 = Bench.percentile waits 0.5 and p95 = Bench.percentile waits 0.95 in
  let layers =
    times
    @ Episode.action_layers acts
    @ Episode.flight_layers buckets (Bench.sum (fun ep -> ep.read.Episode.no_barrier_s) eps)
    @ [
        ("workload.generate_s", setup_s);
        ("sim.vjobs_per_s", ratio (fi completed) wall);
        ("journal.records",
          fi (List.fold_left (fun acc ep -> acc + ep.read.Episode.record_count) 0 eps));
        ("journal.bytes", fi (List.fold_left (fun acc ep -> acc + ep.read.Episode.bytes) 0 eps));
        ("daemon.rounds", fi (isum (fun r -> r.Daemon.decision_rounds)));
        ("daemon.deferred_rounds", fi (isum (fun r -> r.Daemon.deferred_rounds)));
        ("daemon.ladder_ups", fi (isum (fun r -> r.Daemon.ladder_ups)));
        ("daemon.ladder_downs", fi (isum (fun r -> r.Daemon.ladder_downs)));
        ("daemon.triggers_raised", fi (isum (fun r -> r.Daemon.triggers_raised)));
        ("daemon.triggers_coalesced", fi (isum (fun r -> r.Daemon.triggers_coalesced)));
        ("daemon.max_queue_depth",
          fi (List.fold_left (fun acc ep -> max acc ep.report.Daemon.max_queue_depth) 0 eps));
        ("daemon.rejected", fi rejected);
        ("fault.repairs", fi (isum (fun r -> r.Daemon.repairs)));
        ("trace.overhead_s", overhead d);
      ]
  in
  let e2e =
    [
      ("setup_s", setup_s); ("peak_heap_mb", d.peak_heap_mb);
      ("run_wall_s", wall);
    ]
  in
  let extra =
    [
      ("round_wall_median_s", "s", false, Bench.median d.untraced_walls);
      ("plan_cost_mb", "MB", true, fi acts.Episode.plan_cost);
      ("switch_time_s", "s", true, switch_s);
      ("completion_makespan_s", "s", true, makespan);
      ("vjobs_per_s", "1/s", false, ratio (fi completed) wall);
      ("queue_wait_p50_s", "s", true, p50);
      ("queue_wait_p95_s", "s", true, p95);
      ("admitted_waits", "count", true, fi (List.length waits));
      ("rejected", "count", true, fi rejected);
      ("resume_s", "s", false, Bench.median (List.map (fun ep -> ep.resume_s) eps));
    ]
  in
  let switches = List.map (fun ep -> ep.read.Episode.switches) eps in
  let invalid = List.concat_map (fun r -> r.Episode.invalid_plans) switches in
  let overcap = List.concat_map (fun r -> r.Episode.overcap_repairs) switches in
  let resume_crash i ep =
    match ep.resumed with
    | Ok _ -> []
    | Error e ->
      [ Printf.sprintf "episode %d (daemon seed %d): resume raised %s" i
          ep.config.Daemon.seed e ]
  in
  let resume_crashes = List.concat (List.mapi resume_crash eps) in
  (* per episode: (failed submissions, why) *)
  let failed =
    List.mapi
      (fun i ep ->
        let r = ep.report in
        match
          ep.read.Episode.switches.Episode.invalid_plans
          @ ep.read.Episode.switches.Episode.overcap_repairs
          @ resume_crash i ep
        with
        | first :: _ as faults ->
          ( r.Daemon.submissions,
            Some
              (Printf.sprintf "episode %d, all %d submissions: %s (%d in the episode)"
                 i r.Daemon.submissions first (List.length faults)) )
        | [] when r.Daemon.rejected > 0 ->
          ( r.Daemon.rejected,
            Some
              (Printf.sprintf
                 "episode %d, %d submissions rejected: the Defer rung holds \
                  admission while the queue fills to cap - 1"
                 i r.Daemon.rejected) )
        | [] -> (0, None))
      eps
  in
  {
    Bench.e2e_values = e2e;
    layer_values =
      ("core.invalid_plans", fi (List.length invalid))
      :: ("fault.overcap_repair_targets", fi (List.length overcap))
      :: ("daemon.resume_crashes", fi (List.length resume_crashes))
      :: layers;
    outcomes = extra;
    ops = d.rounds * submissions;
    ops_failed = d.rounds * List.fold_left (fun acc (n, _) -> acc + n) 0 failed;
    check_failures = d.failures;
    failed_items = List.filter_map snd failed;
  }
