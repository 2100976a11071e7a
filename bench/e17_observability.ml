(* E17 — observability overhead: the E14 churn workload replayed with
   tracing fully enabled (JSONL span sink + metric registry) versus
   with the sink disabled. The instrumentation itself (Obs.Clock
   reads, histogram observes) is always on — it is part of the engine
   now — so the measured delta is the marginal cost of actually
   emitting spans to disk. Acceptance: end-to-end overhead <= 5%.
   Results land in BENCH_obs.json. *)

open Exp_common
module C = Engine.Controller

let json_out = "BENCH_obs.json"

let smoke = Sys.getenv_opt "VDMC_SMOKE" <> None

(* Below ~50 ms per timed sample a single scheduler hiccup dominates
   the paired ratio, so each sample runs as many back-to-back replays
   as it takes to pass [min_sample_s]. On a shared 2-core host the
   quartiles of the paired ratios lay a median 13 points apart over
   five runs with 50 ms samples, and 7 points over twelve runs with
   250 ms ones. Smoke keeps enough pairs that the median is
   meaningful on a noisy 1-core CI box. *)
let num_deltas = if smoke then 5_000 else 10_000
let runs = if smoke then 15 else 11
let min_sample_s = 0.25

let world () =
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
  (inst, log)

let replay inst log =
  let ctrl = C.create ~policy:(C.Every 100) inst in
  List.iter (fun d -> ignore (C.apply ctrl d)) log;
  C.replan ctrl;
  C.utility ctrl

let run () =
  header "E17" "observability layer: tracing overhead on the E14 churn load";
  let inst, log = world () in
  (* Warm the pool and the metric registry outside the timed region;
     the fastest of three warm replays sizes the samples. *)
  ignore (replay inst log);
  let one =
    List.fold_left Float.min infinity
      (List.init 3 (fun _ ->
           snd (time_it (fun () -> ignore (replay inst log)))))
  in
  let reps = max 1 (int_of_float (Float.ceil (min_sample_s /. one))) in
  let replays () =
    for _ = 1 to reps do
      ignore (replay inst log)
    done
  in
  let trace_path = Filename.temp_file "vdmc_e17" ".jsonl" in
  let spans_before = Obs.Trace.spans_emitted () in
  (* Interleave off/on runs so slow drift on a shared box (frequency
     scaling, co-tenants) hits both sides equally. Each adjacent
     off/on pair yields an overhead ratio; the median over the pairs
     discards runs a scheduler spike contaminated, which min-vs-min
     or median-vs-median comparisons cannot. *)
  let base_times = Array.make runs 0. in
  let traced_times = Array.make runs 0. in
  let timed_base () =
    Gc.major ();
    snd (time_it replays)
  in
  let timed_traced () =
    Gc.major ();
    snd
      (time_it (fun () ->
           Obs.Trace.set_output trace_path;
           replays ();
           Obs.Trace.close ()))
  in
  for i = 0 to runs - 1 do
    (* Alternate which side of the pair runs first so that any
       position-dependent cost (heap shape left by the previous run)
       cancels across pairs. *)
    if i land 1 = 0 then begin
      base_times.(i) <- timed_base ();
      traced_times.(i) <- timed_traced ()
    end
    else begin
      traced_times.(i) <- timed_traced ();
      base_times.(i) <- timed_base ()
    end
  done;
  let per_replay t = t /. float reps in
  let best a = per_replay (Array.fold_left Float.min a.(0) a) in
  let base = best base_times in
  let traced = best traced_times in
  let ratios =
    Array.init runs (fun i -> traced_times.(i) /. base_times.(i))
  in
  Array.sort compare ratios;
  let pct q = 100. *. (ratios.(q * (runs - 1) / 4) -. 1.) in
  let q1_pct = pct 1 and overhead_pct = pct 2 and q3_pct = pct 3 in
  let spans_per_run =
    (Obs.Trace.spans_emitted () - spans_before) / (runs * reps)
  in
  let metrics = Obs.Export.prometheus () in
  let metric_lines = List.length (String.split_on_char '\n' metrics) in
  Sys.remove trace_path;
  let table = T.create [ ("metric", T.Left); ("value", T.Right) ] in
  List.iter
    (fun (k, v) -> T.add_row table [ k; v ])
    [ ("deltas per replay", string_of_int num_deltas);
      ("replays per timed sample", string_of_int reps);
      ("best replay, tracing off", Printf.sprintf "%.4f s" base);
      ("best replay, tracing on", Printf.sprintf "%.4f s" traced);
      ("overhead (median of paired ratios)", Printf.sprintf "%.2f%%" overhead_pct);
      ("overhead quartiles", Printf.sprintf "%.2f%% .. %.2f%%" q1_pct q3_pct);
      ("spans emitted per replay", string_of_int spans_per_run);
      ("prometheus export lines", string_of_int metric_lines) ];
  T.print table;
  Printf.printf
    "acceptance: overhead %.2f%% (quartiles %.2f%% .. %.2f%%; need <= 5%%), \
     %d spans emitted\n"
    overhead_pct q1_pct q3_pct spans_per_run;
  let oc = open_out json_out in
  Printf.fprintf oc
    "{\n\
    \  \"experiment\": \"e17_observability\",\n\
    \  \"host\": %s,\n\
    \  \"deltas\": %d,\n\
    \  \"runs\": %d,\n\
    \  \"replays_per_sample\": %d,\n\
    \  \"best_seconds_tracing_off\": %.6f,\n\
    \  \"best_seconds_tracing_on\": %.6f,\n\
    \  \"overhead_pct\": %.4f,\n\
    \  \"overhead_q1_pct\": %.4f,\n\
    \  \"overhead_q3_pct\": %.4f,\n\
    \  \"spans_per_replay\": %d,\n\
    \  \"prometheus_lines\": %d\n\
     }\n"
    (host_json ()) num_deltas runs reps base traced overhead_pct q1_pct q3_pct
    spans_per_run metric_lines;
  close_out oc;
  Exp_common.check_json json_out;
  Printf.printf "wrote %s\n" json_out
