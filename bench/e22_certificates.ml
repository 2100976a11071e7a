(* E22 — optimality certificates, checked don't trusted.

   Part A (exactness): on Bnb_lp-sized random instances across the
   generator families, the dense emitter lifts the LP relaxation's
   duals into a certificate, the independent checker (Cert.Checker —
   no Simplex dependency) re-derives the bound, and the bound is
   cross-checked against the exact optimum: certified bound >= OPT on
   every seed, or the run fails.

   Part B (scale + composition): an E18-shaped churned population is
   certified three ways — the unsharded engine's sparse (tableau-free)
   path, the 1-shard router composition (gated bit-identical to the
   unsharded bound), and a 4-shard composition whose single global
   bound the checker re-verifies against the true mirror budgets.

   VDMC_SMOKE=1 shrinks both parts for CI. Results land in
   BENCH_certificates.json; any gate failure exits 1. *)

open Exp_common
module C = Engine.Controller
module R = Shard.Router
module SM = Shard.Shard_map

let json_out = "BENCH_certificates.json"

let bits = Int64.bits_of_float

(* ---------- Part A: dense certificates vs exact optima ---------- *)

type small_row = {
  family : string;
  seed : int;
  opt : float;
  optimal : bool;
  bound : float;
  ratio : float;
  method_ : Exact.Certificate.method_;
  repaired : bool;
}

let families =
  let open Workloads.Generator in
  [ ("smd_unit", { default with num_streams = 12; num_users = 8 });
    ( "smd_skew",
      { default with num_streams = 12; num_users = 8; skew = 8. } );
    ( "mmd_m3",
      { default with num_streams = 10; num_users = 6; m = 3; mc = 2 } );
    ( "capped",
      { default with
        num_streams = 10;
        num_users = 6;
        mc = 2;
        utility_cap_fraction = Some 0.6 } );
    ( "tight_budget",
      { default with num_streams = 14; num_users = 6; budget_fraction = 0.15 }
    ) ]

let run_small ~replicas =
  let eps = 1e-6 in
  let violations = ref [] in
  let rows =
    List.concat_map
      (fun (family, params) ->
        Array.to_list
          (replicate ~replicas ~base_seed:22_000 (fun seed ->
               let rng = Prelude.Rng.create seed in
               let inst =
                 Workloads.Generator.instance ~name:family rng params
               in
               let exact = Exact.Bnb_lp.solve inst in
               let opt = exact.Exact.Bnb_lp.value in
               match Exact.Certificate.emit ~target:opt inst with
               | Error msg ->
                   violations :=
                     Printf.sprintf "%s/%d: emit failed (%s)" family seed msg
                     :: !violations;
                   { family; seed; opt; optimal = exact.Exact.Bnb_lp.optimal;
                     bound = nan; ratio = nan; method_ = Exact.Certificate.Dense;
                     repaired = false }
               | Ok (cert, method_) -> (
                   match Exact.Certificate.check inst cert with
                   | Cert.Checker.Rejected msg ->
                       violations :=
                         Printf.sprintf "%s/%d: checker rejected (%s)" family
                           seed msg
                         :: !violations;
                       { family; seed; opt;
                         optimal = exact.Exact.Bnb_lp.optimal; bound = nan;
                         ratio = nan; method_; repaired = false }
                   | Cert.Checker.Certified { bound; repaired } ->
                       (* The theorem under test: a checked bound is an
                          upper bound on the exact optimum. *)
                       if exact.Exact.Bnb_lp.optimal && bound +. eps < opt
                       then
                         violations :=
                           Printf.sprintf
                             "%s/%d: certified bound %.9g < OPT %.9g" family
                             seed bound opt
                           :: !violations;
                       { family; seed; opt;
                         optimal = exact.Exact.Bnb_lp.optimal; bound;
                         ratio = Engine.Certify.ratio_of ~achieved:opt ~bound;
                         method_; repaired }))))
      families
  in
  (rows, List.rev !violations)

(* ---------- Part B: sparse certificates at engine scale ---------- *)

let churned_controller ~seed ~num_streams ~deltas =
  let rng = Prelude.Rng.create seed in
  let cost =
    Array.init num_streams (fun _ ->
        [| 0.5 +. Prelude.Rng.float rng 1.; 0.2 +. Prelude.Rng.float rng 2. |])
  in
  let budget =
    Array.init 2 (fun i ->
        0.2 *. Array.fold_left (fun acc c -> acc +. c.(i)) 0. cost)
  in
  let catalog =
    Mmd.Instance.create ~name:"e22-catalog" ~mc:1 ~server_cost:cost ~budget
      ~load:[||] ~capacity:[||] ~utility:[||] ~utility_cap:[||] ()
  in
  let log =
    Engine.Churn.generate ~rng:(Prelude.Rng.create (seed + 1))
      (Engine.View.of_instance catalog)
      { Engine.Churn.default with deltas }
  in
  (catalog, log)

let run_large ~num_streams ~deltas ~iters =
  let seed = 22_101 in
  let catalog, log = churned_controller ~seed ~num_streams ~deltas in
  (* Unsharded reference: the engine's own sparse certificate. *)
  let ctrl = C.create ~policy:C.Manual catalog in
  C.apply_all ctrl log;
  C.replan ctrl;
  let achieved = C.utility ctrl in
  let unsharded =
    match Engine.Certify.sparse ~iters ~achieved (C.view ctrl) with
    | Ok (o, _) -> o
    | Error msg -> failwith ("unsharded certificate rejected: " ^ msg)
  in
  (* Router composition at 1 and 4 shards over the identical log. *)
  let route shards =
    let tags = Array.init shards (fun i -> Printf.sprintf "rack%d" (i mod 2)) in
    let r = R.create ~policy:C.Manual ~map:(SM.create ~seed ~tags ()) catalog in
    R.apply_all r log;
    R.replan_all r;
    match R.certify ~iters r with
    | Ok (o, _) -> (R.utility r, o)
    | Error msg ->
        failwith (Printf.sprintf "%d-shard certificate rejected: %s" shards msg)
  in
  let util1, sharded1 = route 1 in
  let util4, sharded4 = route 4 in
  (achieved, unsharded, util1, sharded1, util4, sharded4)

let run () =
  header "E22" "optimality certificates: emit fast, verify independently";
  let smoke = Sys.getenv_opt "VDMC_SMOKE" <> None in
  let replicas = if smoke then 4 else 12 in
  let num_streams = if smoke then 300 else 2_000 in
  let deltas = if smoke then 6_000 else 120_000 in
  let iters = 40 in

  let rows, violations = run_small ~replicas in
  let table =
    T.create
      [ ("family", T.Left); ("seeds", T.Right); ("mean ratio", T.Right);
        ("min ratio", T.Right); ("dense", T.Right); ("repaired", T.Right) ]
  in
  List.iter
    (fun (family, _) ->
      let fs = List.filter (fun r -> r.family = family) rows in
      let ratios =
        Array.of_list
          (List.filter_map
             (fun r -> if Float.is_finite r.ratio then Some r.ratio else None)
             fs)
      in
      let s = Prelude.Stats.summarize ratios in
      T.add_row table
        [ family;
          string_of_int (List.length fs);
          Printf.sprintf "%.4f" s.Prelude.Stats.mean;
          Printf.sprintf "%.4f" s.Prelude.Stats.min;
          string_of_int
            (List.length
               (List.filter (fun r -> r.method_ = Exact.Certificate.Dense) fs));
          string_of_int (List.length (List.filter (fun r -> r.repaired) fs)) ])
    families;
  T.print table;
  List.iter (Printf.printf "VIOLATION: %s\n") violations;

  Printf.printf "\nsparse certificates (%d streams, %d deltas):\n" num_streams
    deltas;
  let achieved, unsharded, util1, sharded1, util4, sharded4 =
    run_large ~num_streams ~deltas ~iters
  in
  let open Engine.Certify in
  Printf.printf "  unsharded: achieved %.6g, bound %.6g, ratio %.4f\n"
    achieved unsharded.bound unsharded.ratio;
  Printf.printf "  1 shard:   achieved %.6g, bound %.6g, ratio %.4f\n" util1
    sharded1.bound sharded1.ratio;
  Printf.printf "  4 shards:  achieved %.6g, bound %.6g, ratio %.4f\n" util4
    sharded4.bound sharded4.ratio;
  let bit_identical =
    bits sharded1.bound = bits unsharded.bound && bits util1 = bits achieved
  in
  Printf.printf "  1-shard composition bit-identical to unsharded: %b\n"
    bit_identical;
  (* Soundness gates on the sparse path: a certified bound can never
     sit below the feasible utility the plan actually achieves. *)
  let sound o u = o.bound +. 1e-6 >= u in
  let sparse_sound =
    sound unsharded achieved && sound sharded1 util1 && sound sharded4 util4
  in
  if not sparse_sound then
    Printf.printf "VIOLATION: a certified bound fell below achieved utility\n";

  let oc = open_out json_out in
  Printf.fprintf oc
    "{\n\
    \  \"experiment\": \"e22_certificates\",\n\
    \  \"smoke\": %b,\n\
    \  \"host\": %s,\n\
    \  \"small\": [\n%s\n  ],\n\
    \  \"small_violations\": %d,\n\
    \  \"sparse\": {\n\
    \    \"streams\": %d, \"deltas\": %d, \"iters\": %d,\n\
    \    \"unsharded\": { \"achieved\": %s, \"bound\": %s, \"ratio\": %s },\n\
    \    \"shards_1\": { \"achieved\": %s, \"bound\": %s, \"ratio\": %s },\n\
    \    \"shards_4\": { \"achieved\": %s, \"bound\": %s, \"ratio\": %s },\n\
    \    \"shards_1_bit_identical\": %b\n\
    \  }\n\
     }\n"
    smoke (host_json ())
    (String.concat ",\n"
       (List.map
          (fun r ->
            Printf.sprintf
              "    { \"family\": \"%s\", \"seed\": %d, \"opt\": %s, \
               \"optimal\": %b, \"bound\": %s, \"ratio\": %s, \"method\": \
               \"%s\", \"repaired\": %b }"
              r.family r.seed (json_num r.opt) r.optimal (json_num r.bound)
              (json_num ~precision:4 r.ratio)
              (Exact.Certificate.string_of_method r.method_)
              r.repaired)
          rows))
    (List.length violations) num_streams deltas iters (json_num achieved)
    (json_num unsharded.bound)
    (json_num ~precision:4 unsharded.ratio)
    (json_num util1) (json_num sharded1.bound)
    (json_num ~precision:4 sharded1.ratio)
    (json_num util4) (json_num sharded4.bound)
    (json_num ~precision:4 sharded4.ratio)
    bit_identical;
  close_out oc;
  Exp_common.check_json json_out;
  Printf.printf "results -> %s\n%!" json_out;
  if violations <> [] || not bit_identical || not sparse_sound then exit 1
