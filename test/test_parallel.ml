(* Determinism contract of the multicore execution layer: for every
   solver wired into Prelude.Pool, the plan computed at any domain
   count is identical — stream sets per user, not just utility — to
   the sequential (1-domain) plan. *)

open Helpers
module A = Mmd.Assignment
module Pool = Prelude.Pool

let same_plan a b =
  A.num_users a = A.num_users b
  &&
  let ok = ref true in
  for u = 0 to A.num_users a - 1 do
    if A.user_streams a u <> A.user_streams b u then ok := false
  done;
  !ok

let plan_equality name alg gen_inst =
  qtest ~count:20
    (name ^ ": plan at any domain count = sequential plan")
    QCheck2.Gen.(pair (int_range 0 100_000) (int_range 2 6))
    (fun (seed, domains) ->
      let t = gen_inst ~seed in
      let seq = Pool.with_num_domains 1 (fun () -> alg t) in
      let par = Pool.with_num_domains domains (fun () -> alg t) in
      same_plan seq par)

let smd ~seed = random_smd ~seed ~num_streams:14 ~num_users:5

(* Skewed multi-measure instances so full_pipeline actually spans
   several unit-skew classes (parallel band solves). *)
let mmd ~seed =
  random_mmd ~seed ~num_streams:12 ~num_users:5 ~m:2 ~mc:1 ~skew:6.

let greedy_eq =
  plan_equality "greedy" (fun t -> (Algorithms.Greedy.run t).assignment) smd

let sviridenko_eq =
  plan_equality "sviridenko"
    (Algorithms.Sviridenko.run_feasible ~max_enum_size:2)
    smd

let pipeline_eq =
  plan_equality "full_pipeline" Algorithms.Solve.full_pipeline mmd

let best_of_eq = plan_equality "best_of" Algorithms.Solve.best_of mmd

(* The engine's epoch replan seeds its candidate bounds on the pool;
   more streams than one 64-stream chunk, so the seeding fans out. *)
let engine_replan_eq =
  plan_equality "engine replan"
    (fun t ->
      Engine.Planner.assignment
        (Engine.Controller.scratch_planner ~mode:Engine.Planner.Lazy
           (Engine.View.of_instance t)))
    (fun ~seed ->
      random_mmd ~seed ~num_streams:150 ~num_users:20 ~m:2 ~mc:1 ~skew:1.)

(* The utility value is byte-identical too (same floats, not merely
   approximately equal): the pool never re-associates a float sum. *)
let utility_bits_eq =
  qtest ~count:20 "utility bits identical across domain counts"
    QCheck2.Gen.(pair (int_range 0 100_000) (int_range 2 6))
    (fun (seed, domains) ->
      let t = smd ~seed in
      let value () =
        utility t (Algorithms.Sviridenko.run_feasible ~max_enum_size:2 t)
      in
      let seq = Pool.with_num_domains 1 value in
      let par = Pool.with_num_domains domains value in
      Int64.equal (Int64.bits_of_float seq) (Int64.bits_of_float par))

let suite =
  [ greedy_eq;
    sviridenko_eq;
    pipeline_eq;
    best_of_eq;
    engine_replan_eq;
    utility_bits_eq ]
