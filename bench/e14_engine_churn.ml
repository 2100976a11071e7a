(* E14 — incremental replanning under churn: the engine absorbs a
   10k-delta Zipf churn log with lazy repairs plus periodic CELF-style
   replans, versus the baseline of re-running the full eager greedy
   after every delta. Reported: marginal-utility evaluations saved,
   the utility gap against from-scratch solves (sampled along the log
   and at the end), and delta throughput. Results land in
   BENCH_e14.json; the engine-throughput trajectory file
   (BENCH_engine.json) is E20's, which times the pure apply path
   without E14's in-loop scratch-solve sampling. *)

open Exp_common
module C = Engine.Controller

let num_deltas = 10_000
let sample_every = 500

let json_out = "BENCH_e14.json"

let run () =
  header "E14" "incremental replanning engine vs from-scratch greedy";
  let rng = Prelude.Rng.create 14_001 in
  let inst =
    Workloads.Generator.instance rng
      { Workloads.Generator.default with
        num_streams = 150;
        num_users = 300;
        m = 2;
        mc = 1;
        density = 0.08;
        budget_fraction = 0.25 }
  in
  let log =
    Engine.Churn.generate ~rng
      (Engine.View.of_instance inst)
      { Engine.Churn.default with deltas = num_deltas }
  in
  let ctrl = C.create ~policy:(C.Every 100) inst in
  (* Sampled reference: every [sample_every] deltas, solve the mutated
     view from scratch with the eager greedy on a throwaway planner,
     recording its evaluation bill and the engine's live utility gap
     (mid-epoch, so drift is visible). *)
  let scratch_evals = ref [] in
  let live_gaps = ref [] in
  let applied = ref 0 in
  let _, wall =
    time_it (fun () ->
        List.iter
          (fun delta ->
            ignore (C.apply ctrl delta);
            incr applied;
            (* Sample mid-epoch (offset 50 into each Every-100 epoch),
               not at replan boundaries, so drift is visible. *)
            if !applied mod sample_every = sample_every / 10 then begin
              let scratch_util, evals = C.scratch (C.view ctrl) in
              scratch_evals := float evals :: !scratch_evals;
              if scratch_util > 0. then
                live_gaps :=
                  (100. *. (1. -. (C.utility ctrl /. scratch_util)))
                  :: !live_gaps
            end)
          log)
  in
  C.replan ctrl;
  let report = C.report ctrl in
  let final_utility = C.utility ctrl in
  let scratch_util, _ = C.scratch (C.view ctrl) in
  let final_gap =
    if scratch_util > 0. then 100. *. (1. -. (final_utility /. scratch_util))
    else 0.
  in
  let best_of_util =
    A.utility
      (Engine.View.materialize (C.view ctrl))
      (Algorithms.Solve.best_of (Engine.View.materialize (C.view ctrl)))
  in
  let evals_per_scratch =
    Prelude.Stats.mean (Array.of_list !scratch_evals)
  in
  let full_total = evals_per_scratch *. float num_deltas in
  let engine_evals = report.Engine.Counters.evals in
  let savings = full_total /. float (max 1 engine_evals) in
  let live_gap = Prelude.Stats.summarize (Array.of_list !live_gaps) in
  let ops_per_sec = float num_deltas /. wall in
  let table =
    T.create
      [ ("metric", T.Left); ("value", T.Right) ]
  in
  List.iter
    (fun (k, v) -> T.add_row table [ k; v ])
    [ ("deltas applied", string_of_int num_deltas);
      ("deltas/sec (wall)", Printf.sprintf "%.0f" ops_per_sec);
      ("replans", string_of_int report.Engine.Counters.replans);
      ("evictions", string_of_int report.Engine.Counters.evictions);
      ("engine marginal evals", string_of_int engine_evals);
      ("evals per from-scratch solve", Printf.sprintf "%.0f" evals_per_scratch);
      ( "full-greedy-per-delta evals",
        Printf.sprintf "%.3g" full_total );
      ("eval savings factor", Printf.sprintf "%.0fx" savings);
      ("final utility (engine)", Printf.sprintf "%.6g" final_utility);
      ("final utility (from scratch)", Printf.sprintf "%.6g" scratch_util);
      ("final gap", Printf.sprintf "%.3f%%" final_gap);
      ("best_of utility (context)", Printf.sprintf "%.6g" best_of_util);
      ( "mid-epoch live gap p50/p90",
        Printf.sprintf "%.2f%% / %.2f%%" live_gap.Prelude.Stats.p50
          live_gap.Prelude.Stats.p90 ) ];
  T.print table;
  Printf.printf
    "acceptance: savings %.0fx (need >= 5x), final gap %.3f%% (need <= 1%%)\n"
    savings final_gap;
  (* Machine-readable trajectory point. *)
  let oc = open_out json_out in
  Printf.fprintf oc
    "{\n\
    \  \"experiment\": \"e14_engine_churn\",\n\
    \  \"host\": %s,\n\
    \  \"deltas\": %d,\n\
    \  \"ops_per_sec\": %.1f,\n\
    \  \"replans\": %d,\n\
    \  \"evictions\": %d,\n\
    \  \"engine_evals\": %d,\n\
    \  \"evals_per_scratch_solve\": %.1f,\n\
    \  \"full_greedy_per_delta_evals\": %.1f,\n\
    \  \"eval_savings_factor\": %.1f,\n\
    \  \"final_utility_engine\": %.6f,\n\
    \  \"final_utility_scratch\": %.6f,\n\
    \  \"final_utility_gap_pct\": %.4f,\n\
    \  \"live_gap_p50_pct\": %.4f,\n\
    \  \"live_gap_p90_pct\": %.4f,\n\
    \  \"replan_latency_p50_s\": %.6f,\n\
    \  \"replan_latency_p99_s\": %.6f\n\
     }\n"
    (host_json ()) num_deltas ops_per_sec report.Engine.Counters.replans
    report.Engine.Counters.evictions engine_evals evals_per_scratch full_total
    savings final_utility scratch_util final_gap live_gap.Prelude.Stats.p50
    live_gap.Prelude.Stats.p90
    report.Engine.Counters.replan_latency.Prelude.Stats.p50
    report.Engine.Counters.replan_latency.Prelude.Stats.p99;
  close_out oc;
  Exp_common.check_json json_out;
  Printf.printf "wrote %s\n" json_out
