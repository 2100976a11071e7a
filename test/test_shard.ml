open Helpers
module SM = Shard.Shard_map
module R = Shard.Router
module C = Engine.Controller
module P = Engine.Planner
module V = Engine.View
module D = Engine.Delta

(* Shard count for the sharded-recovery property; CI re-runs the suite
   with VDMC_SHARDS=4 to prove per-shard recovery composes. *)
let env_shards =
  match Sys.getenv_opt "VDMC_SHARDS" with
  | Some s -> ( match int_of_string_opt s with Some n when n > 0 -> n | _ -> 4)
  | None -> 4

(* A deterministic world with churn, as in Test_engine, but the log is
   generated against the same view discipline the router mirrors. *)
let world seed =
  let rng = Prelude.Rng.create seed in
  let inst =
    Workloads.Generator.instance rng
      { Workloads.Generator.default with
        num_streams = 20;
        num_users = 12;
        m = 2;
        mc = 1;
        density = 0.3;
        budget_fraction = 0.35 }
  in
  let log =
    Engine.Churn.generate ~rng (V.of_instance inst)
      { Engine.Churn.default with deltas = 100 }
  in
  (inst, log)

(* ---------- Shard_map constraints ---------- *)

let gen_topology =
  QCheck2.Gen.(
    pair (int_range 0 99)
      (list_size (int_range 1 12) (int_range 0 3) >|= fun racks ->
       Array.of_list (List.map (Printf.sprintf "rack%d") racks)))

let counts_of_plan n assign =
  let counts = Array.make n 0 in
  Array.iter (fun s -> counts.(s) <- counts.(s) + 1) assign;
  counts

let qcheck_balance_and_tags =
  qtest ~count:200 "shard map: balance and tag spread for arbitrary topology"
    QCheck2.Gen.(pair gen_topology (int_range 0 200))
    (fun ((seed, tags), users) ->
      let map = SM.create ~seed ~tags () in
      let n = SM.num_shards map in
      let assign = SM.plan map ~users in
      let counts = counts_of_plan n assign in
      let lo = users / n and hi = (users / n) + if users mod n = 0 then 0 else 1 in
      let balanced = Array.for_all (fun c -> c >= lo && c <= hi) counts in
      (* Per-tag totals inherit the per-shard bound. *)
      let tag_total tag =
        let sum = ref 0 and shards = ref 0 in
        Array.iteri
          (fun s t ->
            if String.equal t tag then begin
              sum := !sum + counts.(s);
              incr shards
            end)
          tags;
        (!sum, !shards)
      in
      let tags_ok =
        Array.for_all
          (fun tag ->
            let sum, g = tag_total tag in
            sum >= g * lo && sum <= g * hi)
          tags
      in
      balanced && tags_ok)

let qcheck_deterministic =
  qtest ~count:100 "shard map: pure function of (seed, topology)"
    gen_topology
    (fun (seed, tags) ->
      let a = SM.create ~seed ~tags () and b = SM.create ~seed ~tags () in
      SM.order a = SM.order b)

let qcheck_spread =
  qtest ~count:200
    "shard map: adjacent placements on distinct racks when possible"
    gen_topology
    (fun (seed, tags) ->
      let map = SM.create ~seed ~tags () in
      let n = SM.num_shards map in
      let order = SM.order map in
      let group_size tag =
        Array.fold_left
          (fun acc t -> if String.equal t tag then acc + 1 else acc)
          0 tags
      in
      let max_group = Array.fold_left (fun acc t -> max acc (group_size t)) 0 tags in
      if max_group > (n + 1) / 2 then true (* no arrangement can avoid repeats *)
      else begin
        let ok = ref true in
        for i = 1 to n - 1 do
          if String.equal tags.(order.(i)) tags.(order.(i - 1)) then ok := false
        done;
        !ok
      end)

let qcheck_route_follows_plan =
  qtest ~count:100 "shard map: routing joins one-by-one replays the plan"
    QCheck2.Gen.(pair gen_topology (int_range 0 60))
    (fun ((seed, tags), users) ->
      let map = SM.create ~seed ~tags () in
      let n = SM.num_shards map in
      let counts = Array.make n 0 in
      let routed =
        Array.init users (fun _ ->
            let s = SM.route map ~counts in
            counts.(s) <- counts.(s) + 1;
            s)
      in
      routed = SM.plan map ~users)

let qcheck_rebalance =
  qtest ~count:200 "shard map: rebalance moves <= k and converges to balance"
    QCheck2.Gen.(
      quad gen_topology
        (list_size (int_range 1 12) (int_range 0 40))
        (int_range 0 5) (int_range 1 8))
    (fun ((seed, tags), raw_counts, _, k) ->
      let map = SM.create ~seed ~tags () in
      let n = SM.num_shards map in
      let counts =
        Array.init n (fun i -> try List.nth raw_counts i with _ -> 0)
      in
      let total = Array.fold_left ( + ) 0 counts in
      let lo = total / n in
      let rec drive counts epochs =
        let moves = SM.rebalance map ~counts ~k in
        if List.length moves > k then Error "more than k moves"
        else if moves = [] then Ok counts
        else if epochs > 200 then Error "did not converge"
        else begin
          List.iter
            (fun { SM.from_shard; to_shard } ->
              counts.(from_shard) <- counts.(from_shard) - 1;
              counts.(to_shard) <- counts.(to_shard) + 1)
            moves;
          drive counts (epochs + 1)
        end
      in
      match drive (Array.copy counts) 0 with
      | Error _ -> false
      | Ok final ->
          Array.for_all (fun c -> c = lo || c = lo + 1) final
          && Array.fold_left ( + ) 0 final = total)

(* ---------- Router: one shard is the unsharded engine ---------- *)

let qcheck_single_shard_identity =
  qtest ~count:40 "router: --shards 1 is bit-identical to the controller"
    QCheck2.Gen.(
      pair (int_range 1 10_000)
        (oneofl [ C.Every 8; C.Every 32; C.Drift 0.05; C.Manual ]))
    (fun (seed, policy) ->
      let inst, log = world seed in
      let ctrl = C.create ~policy inst in
      C.apply_all ctrl log;
      let map = SM.create ~tags:[| "solo" |] () in
      let router = R.create ~policy ~map inst in
      R.apply_all router log;
      let shard = R.controller router 0 in
      let ints (r : Engine.Counters.report) =
        ( r.deltas, r.joins, r.leaves, r.cost_changes, r.budget_resizes,
          r.replans, r.evictions, r.evals, r.eager_equiv, r.evals_saved )
      in
      C.utility ctrl = C.utility shard
      && P.admitted (C.planner ctrl) = P.admitted (C.planner shard)
      && ints (C.report ctrl) = ints (C.report shard)
      && R.utility router = C.utility ctrl)

let qcheck_single_shard_demand_split =
  qtest ~count:20 "router: demand split is the identity at one shard"
    QCheck2.Gen.(int_range 1 10_000)
    (fun seed ->
      let inst, log = world seed in
      let ctrl = C.create inst in
      C.apply_all ctrl log;
      let map = SM.create ~tags:[| "solo" |] () in
      let router = R.create ~split:R.Demand ~map inst in
      R.apply_all router log;
      R.resplit_budgets router;
      let shard = R.controller router 0 in
      (* The resplit applies one extra Budget_resize of exactly B. *)
      Array.for_all
        (fun i -> V.budget (C.view shard) i = V.budget (R.mirror router) i)
        (Array.init (V.m (R.mirror router)) Fun.id)
      && C.utility ctrl = C.utility shard)

(* ---------- Router: the global view equals the unsharded engine's ---------- *)

(* Everything a global view holds that a reader can observe, in a form
   structural equality compares bit for bit: each slot's activity and
   join spec, the free-slot reuse order, and the budget and cost bits. *)
let view_content v =
  let bits a = Array.map Int64.bits_of_float a in
  ( V.num_slots v,
    List.init (V.num_slots v) (fun u ->
        if V.is_active v u then Some (V.user_spec v u) else None),
    V.free_list v,
    bits (V.budgets v),
    Array.init (V.num_streams v) (fun s -> bits (V.cost_row v s)) )

let qcheck_global_view_matches_controller =
  qtest ~count:40
    "router: global slots, mirror and global solve equal the unsharded engine"
    QCheck2.Gen.(
      triple (int_range 1 10_000) (int_range 1 5) (oneofl [ R.Even; R.Demand ]))
    (fun (seed, n, split) ->
      let inst, log = world seed in
      let ctrl = C.create inst in
      let tags = Array.init n (fun i -> Printf.sprintf "rack%d" (i mod 2)) in
      let map = SM.create ~seed ~tags () in
      let router = R.create ~split ~map inst in
      let same_applied =
        List.for_all
          (fun (i, d) ->
            let a = R.apply router d in
            let b = C.apply ctrl d in
            (* Moves and resplits must leave the global view alone. *)
            if i mod 16 = 15 then begin
              ignore (R.rebalance router ~k:2);
              if split = R.Demand then R.resplit_budgets router
            end;
            a = b)
          (List.mapi (fun i d -> (i, d)) log)
      in
      let scratch_bits (u, _) = Int64.bits_of_float u in
      same_applied
      && view_content (R.mirror router) = view_content (C.view ctrl)
      && scratch_bits (R.global_scratch router)
         = scratch_bits (C.scratch ~mode:P.Lazy (C.view ctrl)))

(* A delta the view refuses changes nothing anywhere: not the view, not
   the controller's plan or its budget use, not a router shard, not the
   router's global view. The cost row fails on its second entry, after
   a first entry that is valid. *)
let test_refused_deltas_change_nothing () =
  let inst, log = world 5 in
  let cost =
    match D.of_string_result "cost 0 5 -1" with
    | Ok d -> d
    | Error e -> Alcotest.fail e
  in
  let join =
    D.User_join
      { D.utility_cap = infinity;
        capacity = [| 1. |];
        interests =
          [ (0, 1., [| 1. |]); (Mmd.Instance.num_streams inst, 1., [| 1. |]) ] }
  in
  let ctrl = C.create inst in
  C.apply_all ctrl log;
  let map = SM.create ~seed:5 ~tags:[| "a"; "b"; "a" |] () in
  let router = R.create ~map inst in
  R.apply_all router log;
  let leave = D.User_leave (V.num_slots (C.view ctrl) + 3) in
  let plan_state () =
    let _, used, _ = P.float_state (C.planner ctrl) in
    ( view_content (C.view ctrl),
      Mmd.Io.assignment_to_string (C.plan ctrl),
      Array.map Int64.bits_of_float used )
  in
  let router_state () =
    ( view_content (R.mirror router),
      R.counts router,
      List.init (R.num_shards router) (fun i ->
          view_content (C.view (R.controller router i))) )
  in
  List.iter
    (fun (what, d) ->
      let before_ctrl = plan_state () and before_router = router_state () in
      (match C.apply ctrl d with
      | _ -> Alcotest.failf "the controller took the refused %s" what
      | exception Invalid_argument _ -> ());
      (match R.apply router d with
      | _ -> Alcotest.failf "the router took the refused %s" what
      | exception Invalid_argument _ -> ());
      check_bool (what ^ ": controller unchanged") true
        (plan_state () = before_ctrl);
      check_bool (what ^ ": router unchanged") true
        (router_state () = before_router))
    [ ("cost change", cost); ("join", join); ("leave", leave) ]

(* ---------- Router: multi-shard invariants ---------- *)

let qcheck_multi_shard_invariants =
  qtest ~count:30 "router: population, balance and feasibility across shards"
    QCheck2.Gen.(pair (int_range 1 10_000) (int_range 2 5))
    (fun (seed, n) ->
      let inst, log = world seed in
      let tags = Array.init n (fun i -> Printf.sprintf "rack%d" (i mod 2)) in
      let map = SM.create ~seed ~tags () in
      let router = R.create ~map inst in
      R.apply_all router log;
      R.replan_all router;
      let counts = R.counts router in
      let total = Array.fold_left ( + ) 0 counts in
      let mirror_pop = V.active_count (R.mirror router) in
      let feasible = ref true in
      for i = 0 to n - 1 do
        if not (C.is_plan_feasible (R.controller router i)) then
          feasible := false
      done;
      (* Every active mirror slot is owned by the shard that counts it. *)
      let owned = Array.make n 0 in
      List.iter
        (fun g ->
          let s = R.shard_of_slot router g in
          if s >= 0 then owned.(s) <- owned.(s) + 1)
        (V.active_slots (R.mirror router));
      total = mirror_pop && !feasible && owned = counts
      && R.utility router >= 0.)

let qcheck_rebalance_moves_bounded =
  qtest ~count:30 "router: rebalance moves <= k users and preserves the world"
    QCheck2.Gen.(triple (int_range 1 10_000) (int_range 2 5) (int_range 1 6))
    (fun (seed, n, k) ->
      let inst, log = world seed in
      let tags = Array.init n (fun i -> Printf.sprintf "rack%d" (i mod 2)) in
      let map = SM.create ~seed ~tags () in
      let router = R.create ~map inst in
      R.apply_all router log;
      let before_pop = V.active_count (R.mirror router) in
      let before_version = V.version (R.mirror router) in
      let before = view_content (R.mirror router) in
      let moved = R.rebalance router ~k in
      let counts = R.counts router in
      moved <= k
      && Array.fold_left ( + ) 0 counts = before_pop
      && V.version (R.mirror router) = before_version
      && view_content (R.mirror router) = before
      (* rebalancing until fixpoint balances the shards within one *)
      &&
      let rec drain fuel =
        if fuel = 0 then ()
        else if R.rebalance router ~k > 0 then drain (fuel - 1)
      in
      drain 200;
      let counts = R.counts router in
      let lo = before_pop / n in
      Array.for_all (fun c -> c = lo || c = lo + 1) counts)

(* ---------- Per-shard crash recovery (WAL replay) ---------- *)

let qcheck_sharded_recovery =
  qtest ~count:15
    (Printf.sprintf
       "router: per-shard WAL recovery is bit-identical (shards=%d)"
       env_shards)
    QCheck2.Gen.(int_range 1 10_000)
    (fun seed ->
      let inst, log = world seed in
      let n = env_shards in
      let tags = Array.init n (fun i -> Printf.sprintf "rack%d" (i mod 2)) in
      let map = SM.create ~seed ~tags () in
      let dir =
        Filename.concat (Filename.get_temp_dir_name ())
          (Printf.sprintf "vdmc-shard-%d-%d" (Unix.getpid ()) seed)
      in
      let router = R.create ~wal_dir:dir ~map inst in
      R.apply_all router log;
      ignore (R.rebalance router ~k:3);
      R.close router;
      (* Recover: fresh controllers over the same initial sub-worlds,
         then replay each shard's WAL — the unsharded crash-recovery
         contract, once per shard. *)
      let fresh = R.create ~map inst in
      let ok = ref true in
      for i = 0 to n - 1 do
        let path = Filename.concat dir (Printf.sprintf "shard-%d.wal" i) in
        (match Engine.Wal.recover_file path with
        | Error e -> failwith e
        | Ok r ->
            if r.Engine.Wal.quarantined <> [] then ok := false;
            List.iter
              (fun (_, d) -> ignore (C.apply (R.controller fresh i) d))
              r.Engine.Wal.records);
        let a = R.controller router i and b = R.controller fresh i in
        if
          not
            (C.utility a = C.utility b
            && P.admitted (C.planner a) = P.admitted (C.planner b)
            && Engine.Counters.deltas (C.counters a)
               = Engine.Counters.deltas (C.counters b))
        then ok := false;
        Sys.remove path
      done;
      (try Unix.rmdir dir with Unix.Unix_error _ -> ());
      !ok)

(* A batch that dies on its third delta (a leave of a slot that never
   existed) has applied and logged its first two: they are on disk
   without a further flush. *)
let test_aborted_batch_prefix () =
  let inst, log = world 11 in
  let batch = [ List.nth log 0; List.nth log 1; D.User_leave 9999 ] in
  let map = SM.create ~tags:[| "a"; "b" |] () in
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "vdmc-shard-abort-%d" (Unix.getpid ()))
  in
  let router = R.create ~wal_dir:dir ~map inst in
  (match R.apply_batch router batch with
  | () -> Alcotest.fail "the batch did not raise"
  | exception Invalid_argument _ -> ());
  let one_at_a_time = R.create ~map inst in
  (try List.iter (fun d -> ignore (R.apply one_at_a_time d)) batch
   with Invalid_argument _ -> ());
  for i = 0 to 1 do
    let path = Filename.concat dir (Printf.sprintf "shard-%d.wal" i) in
    (match Engine.Wal.recover_file path with
    | Ok r ->
        check_int
          (Printf.sprintf "shard %d prefix on disk" i)
          (Engine.Counters.deltas (C.counters (R.controller one_at_a_time i)))
          (List.length r.Engine.Wal.records)
    | Error msg -> Alcotest.fail msg);
    Sys.remove path
  done;
  R.close router;
  (try Unix.rmdir dir with Unix.Unix_error _ -> ())

(* ---------- Cross-shard aggregation ---------- *)

let test_aggregated_report () =
  let inst, log = world 77 in
  let map = SM.create ~tags:[| "a"; "a"; "b"; "b" |] () in
  let router = R.create ~map inst in
  R.apply_all router log;
  let r = R.report router in
  check_int "every delta lands on exactly one shard (broadcasts on all)"
    (List.length
       (List.filter
          (function
            | D.User_join _ | D.User_leave _ -> true | _ -> false)
          log)
     + 4
       * List.length
           (List.filter
              (function
                | D.Stream_cost_change _ | D.Budget_resize _ -> true
                | _ -> false)
              log))
    r.Engine.Counters.deltas;
  check_int "joins counted once"
    (List.length (List.filter (function D.User_join _ -> true | _ -> false) log))
    r.Engine.Counters.joins;
  let loss_ref, _ = R.global_scratch router in
  check_bool "global reference solve is positive" true (loss_ref > 0.)

let test_labeled_metrics_merge () =
  let inst, log = world 99 in
  let map = SM.create ~tags:[| "a"; "b" |] () in
  let router = R.create ~map inst in
  R.apply_all router log;
  let labeled =
    List.filter
      (fun (name, labels, _) ->
        String.equal name "engine_deltas_total"
        && List.mem_assoc "shard" labels)
      (Obs.Metrics.snapshot ())
  in
  check_bool "per-shard series registered" true (List.length labeled >= 2);
  let sum = Obs.Metrics.sum_counter "engine_deltas_total" in
  let direct =
    List.fold_left
      (fun acc (_, _, i) ->
        match i with Obs.Metrics.Counter c -> acc + Obs.Metrics.value c | _ -> acc)
      0
      (List.filter
         (fun (n, _, _) -> String.equal n "engine_deltas_total")
         (Obs.Metrics.snapshot ()))
  in
  check_int "sum_counter folds every label set" direct sum;
  let h = Obs.Metrics.merged_histogram "engine_replan_seconds" in
  check_bool "merged histogram has cross-shard mass" true
    (Obs.Hist.count h >= 0)

let suite =
  [ qcheck_balance_and_tags;
    qcheck_deterministic;
    qcheck_spread;
    qcheck_route_follows_plan;
    qcheck_rebalance;
    qcheck_single_shard_identity;
    qcheck_single_shard_demand_split;
    qcheck_global_view_matches_controller;
    Alcotest.test_case "router: a refused delta changes nothing" `Quick
      test_refused_deltas_change_nothing;
    qcheck_multi_shard_invariants;
    qcheck_rebalance_moves_bounded;
    qcheck_sharded_recovery;
    Alcotest.test_case "router: aborted batch keeps its prefix on disk" `Quick
      test_aborted_batch_prefix;
    Alcotest.test_case "cross-shard aggregation" `Quick test_aggregated_report;
    Alcotest.test_case "labeled metrics merge" `Quick
      test_labeled_metrics_merge ]
