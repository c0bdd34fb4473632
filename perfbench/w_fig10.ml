(* fig10-decide: one-shot context-switch decisions on Fig. 10 generated
   clusters. Each instance runs RJSP, then node-budgeted CP, then
   step-budgeted SA and round-budgeted LNS on one placement state; every
   candidate is materialised through the planner and checked by the
   verifier, and the cheapest verified plan is the decision. All
   budgets are work, so every plan is a pure function of the seed. *)

open Entropy_core
module Generator = Vworkload.Generator
module State = Entropy_place.State

let cp_nodes = 200
let sa_steps = 40_000
let lns_rounds = 40

(* CP's wall-clock timeout, set out of reach so the node budget binds *)
let no_deadline = 1e9

(* (label, node count, VM count): the 200-node generator at two VM
   counts, and the dense cluster where CP alone finds nothing *)
let shapes = [ ("200n-108vm", 200, 108); ("200n-216vm", 200, 216); ("54n-216vm", 54, 216) ]
let per_shape = 18

type instance = { label : string; seed : int; gen : Generator.instance }

let generate seed =
  List.concat
    (List.mapi
       (fun s (label, node_count, vm_target) ->
         List.init per_shape (fun k ->
             let seed = (seed * 64) + (s * per_shape) + k in
             {
               label = Printf.sprintf "%s/seed%d" label seed;
               seed;
               gen =
                 Generator.generate
                   { Generator.default_spec with node_count; vm_target; seed };
             }))
       shapes)

type candidate = {
  engine : string;
  target : Configuration.t;
  plan : Plan.t;
  cost : int;  (* Plan.cost *)
}

type decision = {
  inst : instance;
  base : Configuration.t;  (* RJSP's FFD packing, CP's fallback *)
  ffd : candidate;
  chosen : candidate;
  candidates : candidate list;  (* every materialised candidate *)
  verified : int;
  cp_reported : int;  (* Optimizer.result.cost *)
  cp_stats : Fdcp.Search.stats option;
  cp_improved : bool;
  sa : Entropy_place.Anneal.outcome;
  lns : Entropy_place.Lns.outcome;
}

let decide inst =
  let { Generator.config; demand; vjobs } = inst.gen in
  let outcome =
    Span.with_ "core.rjsp" (fun () -> Rjsp.solve ~config ~demand ~queue:vjobs ())
  in
  let placed = List.concat_map Vjob.vms outcome.Rjsp.running in
  let base = outcome.Rjsp.ffd_config in
  let materialise span engine target =
    Span.with_ span (fun () ->
        match Planner.build_plan ~vjobs ~current:config ~target ~demand () with
        | plan -> Some { engine; target; plan; cost = Plan.cost config plan }
        | exception (Planner.Stuck _ | Rgraph.Unreachable _) -> None)
  in
  let ffd =
    match
      materialise "core.planner" "ffd" (Rgraph.normalize_sleeping ~current:config base)
    with
    | Some c -> c
    | None -> failwith (inst.label ^ ": no plan to the FFD configuration")
  in
  let cp =
    Span.with_ "cp.search" (fun () ->
        Optimizer.optimize ~timeout:no_deadline ~node_limit:cp_nodes ~vjobs
          ~current:config ~demand ~placed ~target_base:base ~fallback:base ())
  in
  let st =
    Span.with_ "place.state" (fun () ->
        let st = State.create ~current:config ~demand ~placed ~target_base:base () in
        State.seed_from st base;
        st)
  in
  let sa =
    Span.with_ "place.sa" (fun () ->
        Entropy_place.Anneal.run ~max_steps:sa_steps ~seed:inst.seed
          ~deadline:infinity st)
  in
  let sa_c = materialise "place.materialise" "sa" (State.to_config st) in
  let lns =
    Span.with_ "place.lns" (fun () ->
        Entropy_place.Lns.run ~max_rounds:lns_rounds ~seed:inst.seed ~vjobs
          ~deadline:infinity st)
  in
  let lns_c = materialise "place.materialise" "lns" (State.to_config st) in
  let cp_c =
    { engine = "cp"; target = cp.Optimizer.target; plan = cp.Optimizer.plan;
      cost = Plan.cost config cp.Optimizer.plan }
  in
  let candidates = ffd :: cp_c :: List.filter_map Fun.id [ sa_c; lns_c ] in
  let clean =
    List.filter
      (fun c ->
        Span.with_ "analysis.verify" (fun () ->
            Entropy_analysis.Verifier.verify ~vjobs ~current:config
              ~target:c.target ~demand c.plan
            = []))
      candidates
  in
  let chosen =
    List.fold_left (fun best c -> if c.cost < best.cost then c else best)
      (List.hd (clean @ [ ffd ])) clean
  in
  {
    inst; base; ffd; chosen; candidates; verified = List.length clean;
    cp_reported = cp.Optimizer.cost; cp_stats = cp.Optimizer.stats;
    cp_improved = cp.Optimizer.improved; sa; lns;
  }

let check d =
  let { Generator.config = source; demand; vjobs } = d.inst.gen in
  let what = d.inst.label in
  let c = d.chosen in
  let cp = List.find (fun (k : candidate) -> k.engine = "cp") d.candidates in
  (* the plan Optimizer.optimize falls back to, built apart from it *)
  let fallback = Planner.build_plan ~vjobs ~current:source ~target:d.base ~demand () in
  (if d.verified = 0 then [ what ^ ": no candidate passed the verifier" ] else [])
  @ Checks.within_capacity ~what:(what ^ " target") c.target demand
  @ Checks.reaches_target ~what ~source ~target:c.target c.plan
  @ List.concat_map
      (fun (k : candidate) ->
        Checks.cost_matches ~what:(what ^ " " ^ k.engine) ~source
          ~reported:k.cost k.plan)
      d.candidates
  @ Checks.cost_matches ~what:(what ^ " cp result") ~source
      ~reported:d.cp_reported cp.plan
  @ Checks.not_above_ffd ~what:(what ^ " cp result")
      ~chosen:(Checks.plan_cost source cp.plan)
      ~ffd:(Checks.plan_cost source fallback)
  @ Checks.not_above_ffd ~what ~chosen:(Checks.plan_cost source c.plan)
      ~ffd:(Checks.plan_cost source d.ffd.plan)

(* The deterministic outcome of a decision, compared across rounds. *)
let fingerprint d =
  Printf.sprintf "%s:%s=%d" d.inst.label d.chosen.engine d.chosen.cost

let switch_s d =
  let { Generator.config; _ } = d.inst.gen in
  Schedule.makespan (Schedule.of_plan config d.chosen.plan)

let isum f ds = List.fold_left (fun acc d -> acc + f d) 0 ds
