(* E18 — the sharded multi-head-end engine at the million-user scale:
   1M users / 10k streams across {1, 4, 16} shards behind the
   Shard.Router, reporting aggregate deltas/sec and the cross-shard
   utility loss against a single global solve of the same population.

   The churn log is streamed (never held in memory) from a generator
   that replicates the view's slot discipline — fresh slots count up,
   freed slots are reused LIFO — so leave deltas always name valid
   global slots, and the log is a pure function of the seed: every
   shard count replays the identical workload and ends with the
   identical global state. The loss is reported honestly, no
   acceptance gate: it is the price of partitioning the budget.

   The router's own global state is an interest-free skeleton view
   (slots, capacities, costs, budgets), so the timed ingest pays for
   routing, an O(m) skeleton update and the shards' work. The full
   unsharded view is built outside the timed loop, once for the
   reference solve and once per certification ([Router.mirror]).

   VDMC_SMOKE=1 shrinks to 30k users / 500 streams / shards {1,4}
   for CI. Results land in BENCH_shard.json. *)

open Exp_common
module R = Shard.Router
module SM = Shard.Shard_map
module D = Engine.Delta

let json_out = "BENCH_shard.json"

(* Zipf-ish catalog popularity: cubing a uniform draw concentrates
   mass on low stream ids, the usual popularity skew shape. *)
let pick_stream rng ~num_streams =
  let r = Prelude.Rng.float rng 1. in
  min (num_streams - 1) (int_of_float (float num_streams *. (r *. r *. r)))

let make_spec rng ~num_streams =
  let d = 4 + Prelude.Rng.int rng 24 in
  { D.utility_cap = infinity;
    capacity = [| 60. |];
    interests =
      List.init d (fun _ ->
          ( pick_stream rng ~num_streams,
            1. +. Prelude.Rng.float rng 2.,
            [| 1. +. Prelude.Rng.float rng 3. |] )) }

(* Stream the churn: [joins] net arrivals with [leave_frac] departures
   mixed in once the population is warm. Slot ids replicate
   Engine.View's allocation exactly (fresh counter + LIFO free list). *)
let iter_log ~seed ~first_slot ~num_streams ~joins ~leave_frac f =
  let rng = Prelude.Rng.create seed in
  let active = ref [||] in
  (* active slots as a swap-remove array for O(1) uniform departure *)
  let active_len = ref 0 in
  let pos = Hashtbl.create 1024 in
  let free = ref [] in
  let fresh = ref first_slot in
  let add_active slot =
    if !active_len = Array.length !active then begin
      let grown = Array.make (max 1024 (2 * !active_len)) 0 in
      Array.blit !active 0 grown 0 !active_len;
      active := grown
    end;
    !active.(!active_len) <- slot;
    Hashtbl.replace pos slot !active_len;
    incr active_len
  in
  let remove_active slot =
    let i = Hashtbl.find pos slot in
    let last = !active.(!active_len - 1) in
    !active.(i) <- last;
    Hashtbl.replace pos last i;
    Hashtbl.remove pos slot;
    decr active_len
  in
  let join () =
    let slot =
      match !free with
      | s :: rest ->
          free := rest;
          s
      | [] ->
          let s = !fresh in
          incr fresh;
          s
    in
    add_active slot;
    f (D.User_join (make_spec rng ~num_streams))
  in
  let leave () =
    let i = Prelude.Rng.int rng !active_len in
    let slot = !active.(i) in
    remove_active slot;
    free := slot :: !free;
    f (D.User_leave slot)
  in
  let joined = ref 0 in
  while !joined < joins do
    if
      !active_len > 1000
      && Prelude.Rng.float rng 1. < leave_frac
    then begin
      leave ();
      (* matching rejoin keeps the net population on target *)
      join ();
      incr joined
    end
    else begin
      join ();
      incr joined
    end
  done

let run () =
  header "E18" "sharded multi-head-end engine: the million-user milestone";
  let smoke = Sys.getenv_opt "VDMC_SMOKE" <> None in
  let num_streams = if smoke then 500 else 10_000 in
  let joins = if smoke then 30_000 else 1_000_000 in
  let leave_frac = 0.05 in
  let shard_counts = if smoke then [ 1; 4 ] else [ 1; 4; 16 ] in
  let epoch_deltas = if smoke then 10_000 else 100_000 in
  let rebalance_k = if smoke then 200 else 1000 in
  let seed = 18_001 in
  (* Catalog-only instance: streams and budgets, zero users (mc given
     explicitly) — the entire population arrives as churn. *)
  let catalog =
    let rng = Prelude.Rng.create seed in
    let cost =
      Array.init num_streams (fun _ ->
          [| 0.5 +. Prelude.Rng.float rng 1.;
             0.2 +. Prelude.Rng.float rng 2. |])
    in
    let budget =
      Array.init 2 (fun i ->
          0.2 *. Array.fold_left (fun acc c -> acc +. c.(i)) 0. cost)
    in
    Mmd.Instance.create ~name:"e18-catalog" ~mc:1 ~server_cost:cost ~budget
      ~load:[||] ~capacity:[||] ~utility:[||] ~utility_cap:[||] ()
  in
  let table =
    T.create
      [ ("shards", T.Right); ("deltas/s", T.Right); ("utility", T.Right);
        ("loss%", T.Right); ("cert ratio", T.Right); ("moves", T.Right);
        ("replans", T.Right); ("pop min..max", T.Right) ]
  in
  let global_utility = ref 0. in
  let results =
    List.map
      (fun n ->
        let tags = Array.init n (fun i -> Printf.sprintf "rack%d" (i mod 4)) in
        let map = SM.create ~seed ~tags () in
        let router =
          R.create ~policy:Engine.Controller.Manual ~map catalog
        in
        let applied = ref 0 and moves = ref 0 in
        let t_start = Unix.gettimeofday () in
        let progress what =
          Printf.printf "  [%d shards] %s at %d deltas (t=%.1fs)\n%!" n what
            !applied
            (Unix.gettimeofday () -. t_start)
        in
        let (), wall =
          time_it (fun () ->
              iter_log ~seed ~first_slot:0 ~num_streams ~joins ~leave_frac
                (fun d ->
                  ignore (R.apply router d);
                  incr applied;
                  if !applied mod epoch_deltas = 0 then begin
                    progress "epoch";
                    moves := !moves + R.rebalance router ~k:rebalance_k;
                    R.replan_all router;
                    progress "replanned"
                  end);
              R.replan_all router;
              progress "final replan")
        in
        let utility = R.utility router in
        (* The mirror state is identical for every shard count (same
           log, same slot discipline), so one global solve serves as
           the reference for all runs. *)
        if !global_utility = 0. then begin
          progress "global reference solve";
          let g, _ = R.global_scratch router in
          global_utility := g;
          progress "global reference done"
        end;
        let loss =
          if !global_utility > 0. then
            100. *. (1. -. (utility /. !global_utility))
          else 0.
        in
        let counts = R.counts router in
        let cmin = Array.fold_left min counts.(0) counts in
        let cmax = Array.fold_left max counts.(0) counts in
        (* Certified upper bound on OPT for the final population: every
           shard emits a sparse certificate, the checker composes and
           re-verifies one global bound. nan (-> null in the JSON) if
           the checker rejects — never an unverified number. *)
        progress "certify";
        let certified_ratio =
          match R.certify ~iters:(if smoke then 30 else 20) router with
          | Ok (o, _) -> o.Engine.Certify.ratio
          | Error msg ->
              Printf.printf "  [%d shards] certificate rejected: %s\n%!" n msg;
              nan
        in
        progress "certified";
        let report = R.report router in
        let ops = float !applied /. wall in
        T.add_row table
          [ string_of_int n;
            Printf.sprintf "%.0f" ops;
            Printf.sprintf "%.6g" utility;
            Printf.sprintf "%.2f" loss;
            Printf.sprintf "%.4f" certified_ratio;
            string_of_int !moves;
            string_of_int report.Engine.Counters.replans;
            Printf.sprintf "%d..%d" cmin cmax ];
        (n, ops, utility, loss, certified_ratio, !moves, report, wall))
      shard_counts
  in
  T.print table;
  Printf.printf
    "global solve (one head-end, same %d-user population): utility %.6g\n"
    joins !global_utility;
  Printf.printf
    "cross-shard loss is reported, not gated: it is the price of \
     splitting the budget across independent shards\n";
  let oc = open_out json_out in
  Printf.fprintf oc
    "{\n\
    \  \"experiment\": \"e18_sharded\",\n\
    \  \"smoke\": %b,\n\
    \  \"host\": %s,\n\
    \  \"users\": %d,\n\
    \  \"streams\": %d,\n\
    \  \"global_utility\": %.6f,\n\
    \  \"runs\": [\n"
    smoke (host_json ()) joins num_streams !global_utility;
  List.iteri
    (fun i (n, ops, utility, loss, certified_ratio, moves, report, wall) ->
      Printf.fprintf oc
        "    {\"shards\": %d, \"ops_per_sec\": %.1f, \"utility\": %.6f, \
         \"loss_pct\": %.4f, \"certified_ratio\": %s, \
         \"rebalance_moves\": %d, \"replans\": %d, \"wall_s\": %.3f}%s\n"
        n ops utility loss
        (json_num ~precision:4 certified_ratio)
        moves report.Engine.Counters.replans wall
        (if i = List.length results - 1 then "" else ","))
    results;
  Printf.fprintf oc "  ]\n}\n";
  close_out oc;
  Exp_common.check_json json_out;
  Printf.printf "wrote %s\n" json_out
