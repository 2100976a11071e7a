(* E20 — hot-path overhaul: where did the throughput come from, and
   does it regress?

   Three optimizations landed together (batched delta application, the
   structure-of-arrays view/planner hot path, the domain-pool sharded
   replan), so this experiment reports an honest per-component
   breakdown instead of one headline multiple:

   1. Batch sweep — the E14 churn log replayed through
      {!Engine.Controller.apply_batch} at batch sizes 1/8/64/256, with
      a bit-identity check (utility, plan text, deltas applied,
      replans) against the batch-1 run at every size. Batching
      amortizes the counter-registry flush and the tracing span; the
      per-delta state machine is untouched, which is exactly why the
      identity check can be exact.

   2. SoA vs boxed marginal evaluation — the planner's innermost loop
      (eval_marginal's shape: interest incidence vs flat capacity
      residuals, min-with-cap accumulation, the tolerance test inlined
      so no float is boxed) timed in its structure-of-arrays form
      against a reimplementation through the boxed per-(user, stream,
      measure) accessors and [Float_ops.leq] it replaced. Both walk
      ascending slot ids with identical float order, so the sums are
      bit-equal — asserted. Next to it, the shipped kernel itself: a
      full epoch replan ({!Engine.Controller.replan}) on the same
      world, with its marginal-evaluation count and minor allocation.

   3. Pool replan — {!Shard.Router.replan_all} (concurrent on the
      domain pool) vs the same router forced to one domain. On a
      single-core box this is a no-regression check, not a speedup
      claim; the gate only refuses a parallel path that costs more
      than scheduling noise.

   Methodology is E17's: Gc.major before every timed run, medians over
   repetitions, and paired interleaving where two sides are compared.

   Results land in BENCH_engine.json (E14's trajectory file — E14 now
   writes BENCH_e14.json). The top-level "ops_per_sec" is the batch-1
   pure-apply throughput, kept so the CI regression gate can compare
   against the committed baseline: with VDMC_PERF_GATE=1 the run reads
   the committed file before overwriting it and fails when throughput
   dropped more than 10%. *)

open Exp_common
module C = Engine.Controller
module V = Engine.View
module F = Prelude.Float_ops

let num_deltas = 10_000
let batches = [ 1; 8; 64; 256 ]
let runs = 3
let json_out = "BENCH_engine.json"

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
      (V.of_instance inst)
      { Engine.Churn.default with deltas = num_deltas }
  in
  (inst, log)

(* ----- SoA vs boxed marginal evaluation ----- *)

(* The planner's ordered min/max: [Float.min]/[Float.max] for every
   input, without their sign-bit C calls in the ordered cases. *)
let[@inline] fmin a b = if a < b then a else if b < a then b else Float.min a b
let[@inline] fmax a b = if a > b then a else if b > a then b else Float.max a b

(* [Float_ops.leq] at its default tolerance, inlined as the planner
   does: the call through [Float_ops] boxes both operands. *)
let[@inline] leq a b =
  a <= b
  || Float.is_finite a && Float.is_finite b
     && a <= b +. (F.default_eps *. fmax 1. (fmax (Float.abs a) (Float.abs b)))

(* The planner's [fits_row]: measure 0, then the loop over the rest. *)
let[@inline] fits_row ~cu ~cap ~ld ~base ~li mc =
  if mc = 0 then true
  else if
    not
      (leq
         (Array.unsafe_get cu base +. Array.unsafe_get ld li)
         (Array.unsafe_get cap base))
  then false
  else begin
    let ok = ref true in
    let j = ref 1 in
    while !ok && !j < mc do
      if
        not
          (leq
             (Array.unsafe_get cu (base + !j) +. Array.unsafe_get ld (li + !j))
             (Array.unsafe_get cap (base + !j)))
      then ok := false;
      incr j
    done;
    !ok
  end

(* One marginal-evaluation pass over every stream of the view, in the
   planner's hot-loop shape, against a synthetic half-used capacity
   row. Exposed so the microbenchmark can reuse the exact same kernels
   as bechamel cases. *)

let eval_soa v ~cap_used ~delivered_util =
  let mc = V.mc v in
  let cap = V.capacity_flat v in
  let ucap = V.utility_caps v in
  let total = ref 0. in
  for s = 0 to V.num_streams v - 1 do
    let n = V.inc_len v s in
    let ids = V.inc_ids v s in
    let w = V.inc_w v s in
    let ld = V.inc_loads v s in
    let acc = ref 0. in
    for i = 0 to n - 1 do
      let u = Array.unsafe_get ids i in
      if fits_row ~cu:cap_used ~cap ~ld ~base:(u * mc) ~li:(i * mc) mc then begin
        let uc = Array.unsafe_get ucap u in
        let r =
          if uc = infinity then infinity
          else fmax 0. (uc -. Array.unsafe_get delivered_util u)
        in
        if r > 0. then acc := !acc +. fmin (Array.unsafe_get w i) r
      end
    done;
    total := !total +. !acc
  done;
  !total

(* The same computation through the boxed accessor API the SoA arrays
   replaced: per-(user, stream, measure) calls into the view instead
   of contiguous walks. Iteration order and float order match
   [eval_soa] exactly, so the result is bit-equal. *)
let eval_boxed v ~cap_used ~delivered_util =
  let mc = V.mc v in
  let total = ref 0. in
  for s = 0 to V.num_streams v - 1 do
    let acc = ref 0. in
    V.iter_interested v s (fun u ->
        let base = u * mc in
        let ok = ref true in
        let j = ref 0 in
        while !ok && !j < mc do
          if
            not
              (F.leq
                 (cap_used.(base + !j) +. V.load v u s !j)
                 (V.capacity v u !j))
          then ok := false;
          incr j
        done;
        if !ok then begin
          let uc = V.utility_cap v u in
          let r =
            if uc = infinity then infinity
            else Float.max 0. (uc -. delivered_util.(u))
          in
          if r > 0. then acc := !acc +. Float.min (V.utility v u s) r
        end);
    total := !total +. !acc
  done;
  !total

(* A view plus the synthetic planner-state rows the kernels score
   against: half of every capacity consumed, a third of every cap. *)
let eval_fixture v =
  let mc = V.mc v in
  let n = V.num_slots v in
  let cap_used = Array.make (max 1 (n * mc)) 0. in
  for u = 0 to n - 1 do
    for j = 0 to mc - 1 do
      cap_used.((u * mc) + j) <- 0.5 *. V.capacity v u j
    done
  done;
  let delivered_util = Array.make (max 1 n) 0. in
  for u = 0 to n - 1 do
    let uc = V.utility_cap v u in
    if uc < infinity then delivered_util.(u) <- uc /. 3.
  done;
  (cap_used, delivered_util)

(* The controller the A/B and the replan timing run over: the E14
   world after its churn log, so the incidence structure is the one the
   engine actually plans on. *)
let churned () =
  let inst, log = world () in
  let ctrl = C.create ~policy:C.Manual inst in
  C.apply_all ctrl log;
  ctrl

let soa_world () = C.view (churned ())

let run () =
  header "E20" "hot-path overhaul: batching, SoA eval, pool replan";
  let inst, log = world () in
  let policy = C.Every 100 in

  (* ----- batch sweep ----- *)
  let chunks batch =
    let rec go acc cur k = function
      | [] -> List.rev (if cur = [] then acc else List.rev cur :: acc)
      | d :: rest ->
          if k = batch then go (List.rev cur :: acc) [ d ] 1 rest
          else go acc (d :: cur) (k + 1) rest
    in
    go [] [] 0 log
  in
  let run_once batch =
    let groups = chunks batch in
    let ctrl = C.create ~policy inst in
    Gc.full_major ();
    let (), wall =
      time_it (fun () -> List.iter (fun g -> C.apply_batch ctrl g) groups)
    in
    C.replan ctrl;
    (ctrl, wall)
  in
  let measure batch =
    let walls = Array.make runs 0. in
    let last = ref None in
    for i = 0 to runs - 1 do
      let ctrl, wall = run_once batch in
      walls.(i) <- wall;
      last := Some ctrl
    done;
    Array.sort compare walls;
    (Option.get !last, walls.(runs / 2))
  in
  let ref_ctrl, ref_wall = measure 1 in
  let ref_plan = Mmd.Io.assignment_to_string (C.plan ref_ctrl) in
  let ref_utility = C.utility ref_ctrl in
  let ref_replans = (C.report ref_ctrl).Engine.Counters.replans in
  let base_tput = float num_deltas /. ref_wall in
  let table =
    T.create
      [ ("batch", T.Right); ("deltas/sec", T.Right); ("speedup", T.Right);
        ("bit-identical", T.Left) ]
  in
  let sweep =
    List.map
      (fun batch ->
        let ctrl, wall =
          if batch = 1 then (ref_ctrl, ref_wall) else measure batch
        in
        let tput = float num_deltas /. wall in
        let identical =
          C.utility ctrl = ref_utility
          && Mmd.Io.assignment_to_string (C.plan ctrl) = ref_plan
          && C.deltas_applied ctrl = num_deltas
          && (C.report ctrl).Engine.Counters.replans = ref_replans
        in
        T.add_row table
          [ T.cell_i batch;
            Printf.sprintf "%.0f" tput;
            Printf.sprintf "%.2fx" (tput /. base_tput);
            (if identical then "yes" else "NO") ];
        (batch, tput, identical))
      batches
  in
  T.print table;
  let all_identical = List.for_all (fun (_, _, id) -> id) sweep in
  let tput_of b =
    match List.find_opt (fun (b', _, _) -> b' = b) sweep with
    | Some (_, t, _) -> t
    | None -> 0.
  in

  (* ----- SoA vs boxed marginal evaluation ----- *)
  let v = soa_world () in
  let cap_used, delivered_util = eval_fixture v in
  let soa = eval_soa v ~cap_used ~delivered_util in
  let boxed = eval_boxed v ~cap_used ~delivered_util in
  if soa <> boxed then begin
    Printf.printf "SoA/boxed kernels disagree: %h vs %h\n" soa boxed;
    exit 1
  end;
  let reps = 40 in
  let timed f =
    Gc.major ();
    snd
      (time_it (fun () ->
           for _ = 1 to reps do
             ignore (f v ~cap_used ~delivered_util)
           done))
  in
  (* Interleaved pairs, median ratio (the E17 discipline). *)
  let ratios = Array.make runs 0. in
  let soa_best = ref infinity and boxed_best = ref infinity in
  for i = 0 to runs - 1 do
    let t_soa, t_boxed =
      if i land 1 = 0 then
        let a = timed eval_soa in
        (a, timed eval_boxed)
      else
        let b = timed eval_boxed in
        (timed eval_soa, b)
    in
    soa_best := Float.min !soa_best t_soa;
    boxed_best := Float.min !boxed_best t_boxed;
    ratios.(i) <- t_boxed /. t_soa
  done;
  Array.sort compare ratios;
  let soa_speedup = ratios.(runs / 2) in
  Printf.printf
    "SoA eval: %.3fms vs boxed %.3fms per full-catalog pass — %.2fx\n"
    (1000. *. !soa_best /. float reps)
    (1000. *. !boxed_best /. float reps)
    soa_speedup;

  (* ----- the shipped kernel: one epoch replan on the same world ----- *)
  let ctrl = churned () in
  let planner = C.planner ctrl in
  let replan_reps = 20 in
  let evals0 = Engine.Planner.evals planner in
  Gc.major ();
  let words0 = Gc.minor_words () in
  let replan_walls =
    Array.init replan_reps (fun _ -> snd (time_it (fun () -> C.replan ctrl)))
  in
  let replan_words = (Gc.minor_words () -. words0) /. float replan_reps in
  let replan_evals = (Engine.Planner.evals planner - evals0) / replan_reps in
  Array.sort compare replan_walls;
  let replan_ms = 1000. *. replan_walls.(replan_reps / 2) in
  Printf.printf
    "kernel replan: %.3fms median, %d marginal evals, %.0f minor words \
     per replan\n"
    replan_ms replan_evals replan_words;

  (* ----- pool replan: sharded replan_all, 1 domain vs the pool ----- *)
  let shards = 4 in
  let smap =
    Shard.Shard_map.create
      ~tags:(Array.init shards (fun i -> Printf.sprintf "rack%d" (i mod 2)))
      ()
  in
  let mk_router () =
    let r = Shard.Router.create ~policy:C.Manual ~map:smap inst in
    Shard.Router.apply_batch r log;
    r
  in
  let router = mk_router () in
  let time_replans f =
    let walls = Array.make runs 0. in
    for i = 0 to runs - 1 do
      Gc.major ();
      walls.(i) <- snd (time_it (fun () -> f ()))
    done;
    Array.sort compare walls;
    walls.(runs / 2)
  in
  let seq_wall =
    time_replans (fun () ->
        Prelude.Pool.with_num_domains 1 (fun () ->
            Shard.Router.replan_all router))
  in
  let par_wall = time_replans (fun () -> Shard.Router.replan_all router) in
  let pool_speedup = seq_wall /. par_wall in
  Printf.printf
    "pool replan_all (%d shards): %.3fms on 1 domain, %.3fms on the pool \
     (%d domain(s)) — %.2fx\n"
    shards (1000. *. seq_wall) (1000. *. par_wall)
    (Prelude.Pool.num_domains ())
    pool_speedup;

  (* ----- where the bottleneck moved ----- *)
  let report = C.report ref_ctrl in
  let lat = report.Engine.Counters.replan_latency in
  let replan_total = lat.Prelude.Stats.mean *. float lat.Prelude.Stats.count in
  let replan_fraction =
    if ref_wall > 0. then Float.min 1. (replan_total /. ref_wall) else 0.
  in
  Printf.printf
    "bottleneck: %d replans cost %.3fs of the %.3fs batch-1 wall (%.0f%%) — \
     the hot path is now the epoch replan, not the per-delta apply\n"
    lat.Prelude.Stats.count replan_total ref_wall (100. *. replan_fraction);

  (* ----- gates ----- *)
  let batch_ok = tput_of 64 >= 0.9 *. tput_of 1 in
  let soa_ok = soa_speedup >= 1.0 in
  let pool_ok = pool_speedup >= 0.7 in
  Printf.printf
    "acceptance: bit-identical %s, batch-64 >= 0.9x batch-1 %s, SoA %.2fx \
     (need >= 1.0x) %s, pool %.2fx (need >= 0.7x) %s\n"
    (if all_identical then "yes" else "NO")
    (if batch_ok then "yes" else "NO")
    soa_speedup
    (if soa_ok then "yes" else "NO")
    pool_speedup
    (if pool_ok then "yes" else "NO");

  (* Committed-baseline regression gate: compare against the
     ops_per_sec in the checked-in BENCH_engine.json before
     overwriting it. Armed only under VDMC_PERF_GATE=1 (CI) so local
     runs on slow boxes never fail spuriously. *)
  let find_sub hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i =
      if i + nn > nh then None
      else if String.sub hay i nn = needle then Some i
      else go (i + 1)
    in
    go 0
  in
  let committed_ops =
    match open_in json_out with
    | ic ->
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () ->
            let len = in_channel_length ic in
            let s = really_input_string ic len in
            let key = "\"ops_per_sec\":" in
            match find_sub s key with
            | Some i ->
                let from = i + String.length key in
                let rest =
                  String.trim (String.sub s from (min 32 (len - from)))
                in
                let stop = ref 0 in
                while
                  !stop < String.length rest
                  && (match rest.[!stop] with
                     | '0' .. '9' | '.' | '-' | 'e' | '+' -> true
                     | _ -> false)
                do
                  incr stop
                done;
                float_of_string_opt (String.sub rest 0 !stop)
            | None -> None)
    | exception Sys_error _ -> None
  in
  let gate_armed = Sys.getenv_opt "VDMC_PERF_GATE" <> None in
  let regression =
    match committed_ops with
    | Some old when old > 0. ->
        let new_ops = tput_of 1 in
        Printf.printf
          "committed baseline %.0f deltas/sec; this run %.0f (%.2fx)%s\n"
          old new_ops (new_ops /. old)
          (if gate_armed then " [gate armed]" else "");
        gate_armed && new_ops < 0.9 *. old
    | _ ->
        Printf.printf "no committed ops_per_sec baseline found%s\n"
          (if gate_armed then " [gate armed: skipping comparison]" else "");
        false
  in

  let oc = open_out json_out in
  Printf.fprintf oc
    "{\n\
    \  \"experiment\": \"e20_hot_path\",\n\
    \  \"deltas\": %d,\n\
    \  \"ops_per_sec\": %.1f,\n\
    \  \"batch_sweep\": [\n%s\n  ],\n\
    \  \"bit_identical\": %b,\n\
    \  \"soa_eval_speedup\": %.3f,\n\
    \  \"kernel_replan_ms\": %.3f,\n\
    \  \"kernel_replan_evals\": %d,\n\
    \  \"kernel_replan_minor_words\": %.0f,\n\
    \  \"pool_replan_speedup\": %.3f,\n\
    \  \"replans\": %d,\n\
    \  \"replan_wall_fraction\": %.4f,\n\
    \  \"final_utility\": %.6f,\n\
    \  \"certified_ratio\": %s,\n\
    \  \"host\": %s\n\
     }\n"
    num_deltas (tput_of 1)
    (String.concat ",\n"
       (List.map
          (fun (b, t, id) ->
            Printf.sprintf
              "    { \"batch\": %d, \"ops_per_sec\": %.1f, \"speedup\": \
               %.3f, \"bit_identical\": %b }"
              b t (t /. base_tput) id)
          sweep))
    all_identical soa_speedup replan_ms replan_evals replan_words pool_speedup
    report.Engine.Counters.replans
    replan_fraction ref_utility
    (json_num ~precision:4
       (match
          Engine.Certify.sparse ~achieved:ref_utility (C.view ref_ctrl)
        with
       | Ok (o, _) -> o.Engine.Certify.ratio
       | Error _ -> nan))
    (host_json ());
  close_out oc;
  Exp_common.check_json json_out;
  Printf.printf "wrote %s\n%!" json_out;
  if not (all_identical && batch_ok && soa_ok && pool_ok) || regression then
    exit 1
