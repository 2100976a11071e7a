(* Shared helpers for the experiment harness. *)

module I = Mmd.Instance
module A = Mmd.Assignment
module T = Prelude.Table

let e = Float.exp 1.

(* Approximation ratio OPT/ALG, with care for zero algorithm value. *)
let ratio ~opt ~alg = if alg <= 0. then infinity else opt /. alg

(* Run [f seed] for [replicas] seeds derived from [base_seed] and
   collect the results. *)
let replicate ?(replicas = 20) ~base_seed f =
  Array.init replicas (fun i -> f (base_seed + (7919 * i)))

let summarize_ratios ratios =
  let s = Prelude.Stats.summarize ratios in
  (s.Prelude.Stats.mean, s.Prelude.Stats.p90, s.Prelude.Stats.max)

let header id title =
  Printf.printf "\n=== %s: %s ===\n%!" id title

let fixed_greedy_bound = 3. *. e /. (e -. 1.)
let sviridenko_bound = 2. *. e /. (e -. 1.)

let bands_of_skew alpha =
  1 + int_of_float (Prelude.Float_ops.log2 (Float.max 1. alpha))

(* Wall-clock helper for timed experiments. Uses the same monotonic
   wall clock as the engine's own latency counters (Obs.Clock), so
   BENCH_*.json numbers and engine-reported latencies are directly
   comparable across runs. *)
let time_it f =
  let t0 = Obs.Clock.now () in
  let result = f () in
  (result, Obs.Clock.elapsed_since t0)

let median_time ?(runs = 3) f =
  let times =
    Array.init runs (fun _ ->
        let _, t = time_it f in
        t)
  in
  Array.sort compare times;
  times.(runs / 2)

(* JSON guard rails for the BENCH_*.json writers. Any float that can
   be nan (empty-histogram percentiles, unmeasured sentinels) must go
   through [json_num] — "%f" of nan is not JSON — and every writer
   validates its finished document before leaving it on disk, so a
   formatting regression fails the bench run instead of poisoning
   downstream parsers. *)
let json_num ?precision x = Obs.Json.num ?precision x

(* The host a BENCH_*.json was measured on, as a JSON object. *)
let host_json () =
  Printf.sprintf "{ \"cores\": %d, \"ocaml\": \"%s\", \"domains\": %d }"
    (Domain.recommended_domain_count ())
    Sys.ocaml_version
    (Prelude.Pool.num_domains ())

let check_json path =
  match Obs.Json.validate_file path with
  | Ok () -> ()
  | Error msg ->
      Printf.printf "INVALID JSON %s: %s\n%!" path msg;
      exit 1
