(* Every output check fed a correct output and a deliberately wrong
   one: the check must pass the first and reject the second. Run as
   [main.exe selftest]; exits 1 on the first check that does not. *)

open Entropy_core
module Record = Entropy_journal.Record

let node i = Node.make ~id:i ~name:(Printf.sprintf "N%d" i) ~cpu_capacity:200 ~memory_mb:1024
let vms = Array.init 3 (fun i -> Vm.make ~id:i ~name:(Printf.sprintf "vm%d" i) ~memory_mb:512)
let blank = Configuration.make ~nodes:[| node 0; node 1 |] ~vms
let demand = Demand.uniform ~vm_count:3 100
let config states = Configuration.with_states blank (Array.of_list states)

let source = Configuration.[ Running 0; Running 0; Waiting ] |> config
let target = Configuration.[ Running 0; Running 1; Running 1 ] |> config

let plan =
  Plan.make
    [ [ Action.Migrate { vm = 1; src = 0; dst = 1 } ]; [ Action.Run { vm = 2; dst = 1 } ] ]

let switch_records ~end_at =
  [
    Record.Switch_begin
      { switch = 0; at_s = 10.; source; target; plan; demand; seed = None };
    Record.Action_done
      { switch = 0; pool = 0; at_s = end_at; action = List.hd (Plan.actions plan) };
  ]

let submission vjob disposition =
  Record.Submission { at_s = float_of_int vjob; vjob; vms = 1; disposition }

(* (name, check on the correct output, check on the wrong output) *)
let cases =
  [
    ( "over-capacity target",
      Checks.within_capacity ~what:"t" target demand,
      Checks.within_capacity ~what:"t"
        (Configuration.[ Running 0; Running 0; Running 0 ] |> config)
        demand );
    ( "plan cost off by one",
      Checks.cost_matches ~what:"t" ~source ~reported:(Plan.cost source plan) plan,
      Checks.cost_matches ~what:"t" ~source ~reported:(Plan.cost source plan + 1) plan );
    ( "Table 1 cost worked by hand (migrate 512, then a run waiting one pool)",
      Checks.cost_matches ~what:"t" ~source ~reported:1024 plan,
      Checks.cost_matches ~what:"t" ~source ~reported:1024
        (Plan.make
           [ [ Action.Migrate { vm = 1; src = 0; dst = 1 }; Action.Run { vm = 2; dst = 1 } ] ])
    );
    ( "plan that does not reach its target",
      Checks.reaches_target ~what:"t" ~source ~target plan,
      Checks.reaches_target ~what:"t" ~source ~target
        (Plan.make [ [ Action.Migrate { vm = 1; src = 0; dst = 1 } ] ]) );
    ( "plan with an action that does not apply",
      Checks.reaches_target ~what:"t" ~source ~target plan,
      Checks.reaches_target ~what:"t" ~source ~target
        (Plan.make
           [
             [ Action.Migrate { vm = 1; src = 1; dst = 0 } ];
             [ Action.Run { vm = 2; dst = 1 } ];
           ]) );
    ( "chosen plan above FFD",
      Checks.not_above_ffd ~what:"t" ~chosen:900 ~ffd:900,
      Checks.not_above_ffd ~what:"t" ~chosen:901 ~ffd:900 );
    ( "vjob finishing before its min_duration",
      Checks.no_early_completion ~what:"t" ~submit:5. ~min_duration:100. ~completed:105.,
      Checks.no_early_completion ~what:"t" ~submit:5. ~min_duration:100. ~completed:104. );
    ( "makespan below total compute over cores",
      Checks.makespan_bound ~what:"t" ~makespan:500. ~total_compute:1000. ~cores:2.,
      Checks.makespan_bound ~what:"t" ~makespan:499. ~total_compute:1000. ~cores:2. );
    ( "attribution buckets not summing to the journaled span",
      Checks.buckets_sum ~what:"t"
        ~spans:(Checks.switch_spans (switch_records ~end_at:25.))
        ~switch:0 ~bucket_total:15.,
      Checks.buckets_sum ~what:"t"
        ~spans:(Checks.switch_spans (switch_records ~end_at:25.))
        ~switch:0 ~bucket_total:(15. +. 1e-5) );
    ( "rebuilt queue depth reaching the cap",
      Checks.queue_below_cap ~what:"t" ~cap:3
        Record.
          [
            submission 0 Queued; submission 1 Queued; submission 0 Admitted;
            submission 2 Queued; submission 3 (Rejected "full");
          ],
      Checks.queue_below_cap ~what:"t" ~cap:3
        Record.[ submission 0 Queued; submission 1 Queued; submission 2 Queued ] );
    ( "rejected submission later admitted",
      Checks.settles_once ~what:"t"
        Record.[ submission 0 Queued; submission 0 Admitted; submission 1 (Rejected "full") ],
      Checks.settles_once ~what:"t"
        Record.[ submission 1 (Rejected "full"); submission 1 Queued; submission 1 Admitted ]
    );
    ( "submission admitted twice",
      Checks.settles_once ~what:"t" Record.[ submission 0 Queued; submission 0 Admitted ],
      Checks.settles_once ~what:"t"
        Record.[ submission 0 Queued; submission 0 Admitted; submission 0 Admitted ] );
    ( "admitted VM left running",
      Checks.admitted_terminated ~what:"t" ~admitted_vms:2
        (Configuration.[ Terminated; Terminated; Waiting ] |> config),
      Checks.admitted_terminated ~what:"t" ~admitted_vms:2
        (Configuration.[ Terminated; Running 1; Waiting ] |> config) );
  ]

let run () =
  List.fold_left
    (fun status (name, good, bad) ->
      let ok = good = [] && bad <> [] in
      Printf.printf "%s %s\n" (if ok then "ok  " else "FAIL") name;
      if not ok then begin
        List.iter (Printf.printf "       correct output rejected: %s\n") good;
        if bad = [] then print_endline "       wrong output accepted"
      end;
      if ok then status else 1)
    0 cases
