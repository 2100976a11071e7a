(* Bechamel micro-benchmarks: per-call cost of each algorithm on a
   fixed mid-size instance. One Test.make per experiment pillar. *)

open Bechamel
open Toolkit

let make_tests () =
  let rng = Prelude.Rng.create 4242 in
  let smd =
    Workloads.Generator.smd_unit_skew rng ~num_streams:120 ~num_users:12
  in
  let mmd =
    Workloads.Generator.instance rng
      { Workloads.Generator.default with
        num_streams = 120;
        num_users = 12;
        m = 3;
        mc = 2;
        skew = 4. }
  in
  let small =
    Workloads.Generator.small_streams rng
      { Workloads.Generator.default with
        num_streams = 120;
        num_users = 12;
        m = 2 }
  in
  let tiny =
    Workloads.Generator.smd_unit_skew (Prelude.Rng.create 7)
      ~num_streams:12 ~num_users:4
  in
  (* Hot-path overhaul fixtures: the SoA-vs-boxed kernels from E20,
     batched delta application, and the two snapshot-restore formats. *)
  let e20_view = E20_hot_path.soa_world () in
  let cap_used, delivered_util = E20_hot_path.eval_fixture e20_view in
  let churn_world deltas seed =
    let rng = Prelude.Rng.create seed in
    let inst =
      Workloads.Generator.instance rng
        { Workloads.Generator.default with
          num_streams = 60;
          num_users = 40;
          m = 2;
          mc = 1;
          density = 0.2;
          budget_fraction = 0.3 }
    in
    let log =
      Engine.Churn.generate ~rng
        (Engine.View.of_instance inst)
        { Engine.Churn.default with deltas }
    in
    (inst, log)
  in
  let binst, blog = churn_world 512 2020 in
  let chunk batch log =
    let rec go acc cur k = function
      | [] -> List.rev (if cur = [] then acc else List.rev cur :: acc)
      | d :: rest ->
          if k = batch then go (List.rev cur :: acc) [ d ] 1 rest
          else go acc (d :: cur) (k + 1) rest
    in
    go [] [] 0 log
  in
  let batched = List.map (fun b -> (b, chunk b blog)) [ 1; 8; 64; 256 ] in
  let apply_batched groups () =
    let ctrl =
      Engine.Controller.create ~policy:(Engine.Controller.Every 100) binst
    in
    List.iter (fun g -> Engine.Controller.apply_batch ctrl g) groups
  in
  let rinst, rlog = churn_world 1000 2021 in
  let snap_path = Filename.temp_file "micro" ".eng" in
  let chain_path = Filename.temp_file "micro" ".ckpt" in
  (* temp_file creates the file empty; the writer must create the
     chain itself to lay down the magic line. *)
  Sys.remove chain_path;
  let rctrl =
    Engine.Controller.create ~policy:(Engine.Controller.Every 100) rinst
  in
  let cw = Engine.Checkpoint.create_writer ~path:chain_path rctrl in
  List.iteri
    (fun i d ->
      Engine.Checkpoint.note cw (Engine.Controller.apply rctrl d);
      if (i + 1) mod 200 = 0 then begin
        Engine.Checkpoint.checkpoint cw rctrl;
        Engine.Snapshot.write_file snap_path rctrl
      end)
    rlog;
  Engine.Checkpoint.close_writer cw;
  let bits_n = 16_384 in
  let bits = Prelude.Bitset.create bits_n in
  let bools = Array.make bits_n false in
  let sum_cols n f =
    (* Shape of Greedy.init's residual pass: one float per stream,
       each summing a small column. *)
    let out = f n (fun s -> Float.of_int (s land 15) *. 0.5) in
    ignore (Sys.opaque_identity out)
  in
  [ Test.make ~name:"bitset-sweep/n=16k"
      (Staged.stage (fun () ->
           for i = 0 to bits_n - 1 do
             if i land 7 = 0 then Prelude.Bitset.set bits i
             else Prelude.Bitset.clear bits i
           done;
           ignore (Sys.opaque_identity (Prelude.Bitset.count bits))));
    Test.make ~name:"boolarray-sweep/n=16k"
      (Staged.stage (fun () ->
           let count = ref 0 in
           for i = 0 to bits_n - 1 do
             bools.(i) <- i land 7 = 0;
             if bools.(i) then incr count
           done;
           ignore (Sys.opaque_identity !count)));
    Test.make ~name:"pool-float-init/n=4096"
      (Staged.stage (fun () ->
           sum_cols 4096 (Prelude.Pool.float_init ~chunk:64)));
    Test.make ~name:"seq-float-init/n=4096"
      (Staged.stage (fun () ->
           Prelude.Pool.with_num_domains 1 (fun () ->
               sum_cols 4096 (Prelude.Pool.float_init ~chunk:64))));
    Test.make ~name:"greedy/n=120"
      (Staged.stage (fun () -> Algorithms.Greedy.run smd));
    Test.make ~name:"fixed-greedy/n=120"
      (Staged.stage (fun () -> Algorithms.Greedy_fixed.run_feasible smd));
    Test.make ~name:"skew-classify/n=120"
      (Staged.stage (fun () ->
           Algorithms.Skew_reduce.run
             (Algorithms.Mmd_reduce.to_smd mmd).Algorithms.Mmd_reduce.instance));
    Test.make ~name:"pipeline/n=120,m=3,mc=2"
      (Staged.stage (fun () -> Algorithms.Solve.full_pipeline mmd));
    Test.make ~name:"online-allocate/n=120"
      (Staged.stage (fun () -> Algorithms.Online_allocate.run_offline small));
    Test.make ~name:"threshold/n=120"
      (Staged.stage (fun () -> Baselines.Policies.threshold mmd));
    Test.make ~name:"lp-relax/n=12"
      (Staged.stage (fun () -> Exact.Lp_relax.solve tiny));
    Test.make ~name:"brute-force/n=12"
      (Staged.stage (fun () -> Exact.Brute_force.solve tiny));
    Test.make ~name:"soa-marginal-eval/s=150"
      (Staged.stage (fun () ->
           ignore
             (Sys.opaque_identity
                (E20_hot_path.eval_soa e20_view ~cap_used ~delivered_util))));
    Test.make ~name:"boxed-marginal-eval/s=150"
      (Staged.stage (fun () ->
           ignore
             (Sys.opaque_identity
                (E20_hot_path.eval_boxed e20_view ~cap_used ~delivered_util)))) ]
  @ List.map
      (fun (b, groups) ->
        Test.make
          ~name:(Printf.sprintf "apply-batch/d=512,b=%d" b)
          (Staged.stage (apply_batched groups)))
      batched
  @ [ Test.make ~name:"snapshot-parse/full,n=60"
        (Staged.stage (fun () ->
             match Engine.Checkpoint.recover ~path:snap_path with
             | Ok r -> ignore (Sys.opaque_identity r.Engine.Checkpoint.ctrl)
             | Error msg -> failwith msg));
      Test.make ~name:"chain-recover/incremental,n=60"
        (Staged.stage (fun () ->
             match
               Engine.Checkpoint.recover ~path:chain_path
             with
             | Ok r -> ignore (Sys.opaque_identity r.Engine.Checkpoint.ctrl)
             | Error msg -> failwith msg)) ]

let run () =
  Exp_common.header "MICRO" "bechamel per-call timings";
  let tests = Test.make_grouped ~name:"vdmc" (make_tests ()) in
  let cfg =
    Benchmark.cfg ~limit:300 ~quota:(Time.second 0.5) ~kde:None ()
  in
  let raw = Benchmark.all cfg Instance.[ monotonic_clock ] tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let table =
    Prelude.Table.create
      [ ("benchmark", Prelude.Table.Left);
        ("time per call", Prelude.Table.Right);
        ("r^2", Prelude.Table.Right) ]
  in
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols ->
      let per_call =
        match Analyze.OLS.estimates ols with
        | Some (t :: _) -> t
        | _ -> nan
      in
      let r2 = Option.value ~default:nan (Analyze.OLS.r_square ols) in
      rows := (name, per_call, r2) :: !rows)
    results;
  List.iter
    (fun (name, per_call, r2) ->
      let pretty =
        if Float.is_nan per_call then "-"
        else if per_call > 1e9 then Printf.sprintf "%.2f s" (per_call /. 1e9)
        else if per_call > 1e6 then Printf.sprintf "%.2f ms" (per_call /. 1e6)
        else if per_call > 1e3 then Printf.sprintf "%.2f us" (per_call /. 1e3)
        else Printf.sprintf "%.0f ns" per_call
      in
      Prelude.Table.add_row table
        [ name; pretty; Printf.sprintf "%.3f" r2 ])
    (List.sort compare !rows);
  Prelude.Table.print table
