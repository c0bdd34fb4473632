(* fig10-decide workload runner: a round is the decision sweep over every
   generated instance. *)

open Run_common
module W = W_fig10

let run ~seed ~seconds ~trace =
  let insts, setup_s = Bench.setup ~per_rep:1 (fun () -> W.generate seed) in
  let d =
    drive ~seconds ~trace
      ~round:(fun () ->
        List.split
          (List.map (fun i -> Bench.scaled (fun () -> W.decide i)) insts))
      ~fingerprint:(fun ds -> String.concat " " (List.map W.fingerprint ds))
      ~check:(List.concat_map W.check)
  in
  let ds = d.first in
  let wall = fastest_wall d in
  let plan_cost = fi (W.isum (fun x -> x.W.chosen.W.cost) ds) in
  let switch_s = Bench.sum W.switch_s ds in
  let stat f = W.isum (fun x -> match x.W.cp_stats with Some s -> f s | None -> 0) ds in
  let cp_nodes = stat (fun s -> s.Fdcp.Search.nodes) in
  let times =
    layer_times d
      [
        ("core.rjsp_s", [ "core.rjsp" ]); ("cp.search_s", [ "cp.search" ]);
        ("place.sa_s", [ "place.state"; "place.sa" ]); ("place.lns_s", [ "place.lns" ]);
        ("place.materialise_s", [ "place.materialise" ]);
        ("core.planner_s", [ "core.planner" ]);
        ("analysis.verify_s", [ "analysis.verify" ]);
      ]
  in
  let t name = List.assoc name times in
  let n = List.length ds in
  let sa_steps = W.isum (fun x -> x.W.sa.Entropy_place.Anneal.steps) ds in
  let lns_rounds = W.isum (fun x -> x.W.lns.Entropy_place.Lns.rounds) ds in
  let layers =
    times
    @ [
        ("workload.generate_s", setup_s);
        ("core.rjsp_calls", fi n);
        ("cp.nodes", fi cp_nodes);
        ("cp.fails", fi (stat (fun s -> s.Fdcp.Search.fails)));
        ("cp.nodes_per_s", ratio (fi cp_nodes) (t "cp.search_s"));
        ("cp.improved_ratio",
          ratio (fi (W.isum (fun x -> if x.W.cp_improved then 1 else 0) ds)) (fi n));
        ("place.sa_steps_per_s", ratio (fi sa_steps) (t "place.sa_s"));
        ("place.sa_accept_ratio",
          ratio (fi (W.isum (fun x -> x.W.sa.Entropy_place.Anneal.accepted) ds))
            (fi sa_steps));
        ("place.lns_rounds_per_s", ratio (fi lns_rounds) (t "place.lns_s"));
        ("place.lns_improve_ratio",
          ratio
            (fi (W.isum (fun x -> x.W.lns.Entropy_place.Lns.improved_rounds) ds))
            (fi lns_rounds));
        ("core.plan_actions",
          fi (W.isum (fun x -> Entropy_core.Plan.action_count x.W.chosen.W.plan) ds));
        ("core.plan_pools",
          fi (W.isum (fun x -> Entropy_core.Plan.pool_count x.W.chosen.W.plan) ds));
        ("trace.overhead_s", overhead d);
      ]
  in
  let e2e =
    [
      ("setup_s", setup_s); ("peak_heap_mb", d.peak_heap_mb);
      ("run_wall_s", wall);
    ]
  in
  let wins engine =
    fi (W.isum (fun x -> if x.W.chosen.W.engine = engine then 1 else 0) ds)
  in
  let extra =
    [
      ("round_wall_median_s", "s", false, Bench.median d.untraced_walls);
      ("plan_cost_mb", "MB", true, plan_cost);
      ("switch_time_s", "s", true, switch_s);
      ("ffd_cost_mb", "MB", true, fi (W.isum (fun x -> x.W.ffd.W.cost) ds));
      ("decisions_won_by_cp", "count", true, wins "cp");
      ("decisions_won_by_sa", "count", true, wins "sa");
      ("decisions_won_by_lns", "count", true, wins "lns");
      ("decisions_won_by_ffd", "count", true, wins "ffd");
    ]
  in
  {
    Bench.e2e_values = e2e; layer_values = layers; outcomes = extra;
    ops = d.rounds * n; ops_failed = 0; check_failures = d.failures;
    failed_items = [];
  }
