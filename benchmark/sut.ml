(* The system under test, as the benchmark sees it.

   Every call the benchmark makes into the program goes through this
   module, so it is the API surface the benchmark pins:

   - Engine.Controller: create, apply, apply_batch, since_replan,
     is_plan_feasible (plus utility/plan/view/counters/report/scratch
     to read results);
   - Shard.Router: create, apply, apply_batch, certify, global_scratch,
     counts (plus controller/demand/utility/close);
   - Replica.Group: create, apply, apply_batch, acked, last_seq,
     quiesce (plus primary/live_followers/follower_ctrl/lag/close);
   - Replica.Transport_socket.loopback;
   - Engine.Wal: append_file, recover_file (plus append_tee,
     flush_writer, close);
   - Engine.Delta: of_string_result, to_string;
   - Engine.Certify.sparse;
   - Mmd.Instance.create, Shard.Shard_map.create, Prelude.Pool's
     domain count, Obs.Json.validate_file.

   A refactor of the program keeps these, or changes the benchmark in
   its own change. *)

module C = Engine.Controller
module D = Engine.Delta
module G = Replica.Group
module R = Shard.Router
module Wal = Engine.Wal

type delta = D.t

let decode = D.of_string_result
let encode = D.to_string
let kind = D.kind

(* Load comes from one thread, and the engine's own pool (the sharded
   replan fan-out) runs on one domain: the benchmark measures the
   single-core path, with a core left over for the OS and sockets. *)
let pin_one_domain () = Prelude.Pool.set_num_domains (Some 1)
let domains = Prelude.Pool.num_domains
let validate_json_file = Obs.Json.validate_file

let instance ~name ~server_cost ~budget ~load ~capacity ~utility =
  Mmd.Instance.create ~name ~server_cost ~budget ~load ~capacity ~utility
    ~utility_cap:(Array.make (Array.length utility) infinity)
    ()

type backend = Single | Replicated of int | Sharded of int

(* One engine under test. Every backend logs each applied delta to a
   WAL in [dir] before the apply call returns (flushed to the OS, not
   fsync'd), so "durable" and "recovery" mean the same on all of them:
   a bare controller appends after applying, as the router and the
   replica group do internally. *)
type t =
  | Single of { ctrl : C.t; wal : Wal.writer }
  | Replicated of { group : G.t; wal : Wal.writer }
  | Sharded of { router : R.t; shards : int }

let wal_path dir = Filename.concat dir "engine.wal"

let shard_wal_path dir i = Filename.concat dir (Printf.sprintf "shard-%d.wal" i)

let shard_map ~seed n =
  Shard.Shard_map.create ~seed
    ~tags:(Array.init n (fun i -> Printf.sprintf "rack%d" (i mod 2)))
    ()

let loopback (_ : int) = Replica.Transport_socket.loopback ()

let create ?(mk_link = loopback) ~seed ~every ~dir (backend : backend) inst =
  let policy = C.Every every in
  match backend with
  | Single -> Single { ctrl = C.create ~policy inst; wal = Wal.append_file (wal_path dir) }
  | Replicated replicas ->
      let wal = Wal.append_file (wal_path dir) in
      Replicated { group = G.create ~policy ~wal ~mk_link ~replicas inst; wal }
  | Sharded shards ->
      let map = shard_map ~seed shards in
      Sharded { router = R.create ~policy ~split:R.Even ~wal_dir:dir ~map inst; shards }

(* One delta, one call: applied, logged and (replicated) shipped when
   it returns. *)
let apply t d =
  match t with
  | Single { ctrl; wal } ->
      ignore (C.apply ctrl d);
      ignore (Wal.append wal d)
  | Replicated { group; _ } -> ignore (G.apply group d)
  | Sharded { router; _ } -> ignore (R.apply router d)

(* Every delta of the batch in one call, with one WAL flush at the end;
   bit-identical to applying them one at a time. *)
let apply_batch t ds =
  match t with
  | Single { ctrl; wal } ->
      C.apply_batch ctrl ds;
      List.iter (fun d -> ignore (Wal.append_tee ~flush:false wal d)) ds;
      Wal.flush_writer wal
  | Replicated { group; _ } -> ignore (G.apply_batch group ds)
  | Sharded { router; _ } -> R.apply_batch router ds

(* The layer calls the traced pass wraps in spans, one backend each. *)
let controller_apply ctrl d = ignore (C.apply ctrl d)
let wal_append wal d = ignore (Wal.append wal d)
let group_apply group d = ignore (G.apply group d)
let router_apply router d = ignore (R.apply router d)

let since_replan = C.since_replan
let deltas_applied = C.deltas_applied

(* Primary controllers: the one controller, the group's primary, or
   every shard's. *)
let controllers = function
  | Single { ctrl; _ } -> [ ctrl ]
  | Replicated { group; _ } -> [ G.primary group ]
  | Sharded { router; shards; _ } -> List.init shards (R.controller router)

(* Of the [applied] deltas, how many are durable: all of them on a
   backend that flushes its WAL before the apply call returns; with
   replicas, those every live follower has also applied (deltas map to
   WAL seqs 1, 2, ... in apply order). *)
let min_acked group =
  List.fold_left
    (fun acc id -> match G.acked group id with Some a -> min acc a | None -> acc)
    (G.last_seq group) (G.live_followers group)

let durable t ~applied =
  match t with
  | Single _ | Sharded _ -> applied
  | Replicated { group; _ } -> min_acked group

let max_lag = function
  | Replicated { group; _ } ->
      List.fold_left
        (fun acc id ->
          match G.lag group id with Some l -> max acc l | None -> acc)
        0 (G.live_followers group)
  | Single _ | Sharded _ -> 0

(* Drive replication to convergence; true when every live follower
   caught up (trivially true without replicas). *)
let quiesce = function
  | Replicated { group; _ } -> G.quiesce group
  | Single _ | Sharded _ -> true

let close = function
  | Single { wal; _ } -> Wal.close wal
  | Replicated { group; wal } ->
      G.close group;
      Wal.close wal
  | Sharded { router; _ } -> R.close router

let utility = function
  | Single { ctrl; _ } -> C.utility ctrl
  | Replicated { group; _ } -> C.utility (G.primary group)
  | Sharded { router; _ } -> R.utility router

let plan_text ctrl = Mmd.Io.assignment_to_string (C.plan ctrl)

(* What bit-identity checks compare: each serving controller's plan
   bytes and utility bits. *)
let fingerprint ctrls = List.map (fun c -> (plan_text c, Int64.bits_of_float (C.utility c))) ctrls

let feasible t = List.for_all C.is_plan_feasible (controllers t)

let followers_identical = function
  | Replicated { group; _ } ->
      let p = fingerprint [ G.primary group ] in
      List.for_all
        (fun id ->
          match G.follower_ctrl group id with Some f -> fingerprint [ f ] = p | None -> false)
        (G.live_followers group)
  | Single _ | Sharded _ -> true

(* Utility of one from-scratch global solve of the current world: the
   unsharded mirror for a router, the controller's own view otherwise. *)
let global_scratch = function
  | Sharded { router; _ } -> fst (R.global_scratch router)
  | t ->
      let ctrl = List.hd (controllers t) in
      fst (C.scratch ~mode:Engine.Planner.Lazy (C.view ctrl))

type certificate = { bound : float; achieved : float; ratio : float; iterations : int }

let certify t =
  let of_outcome (o : Engine.Certify.outcome) =
    { bound = o.bound; achieved = o.achieved; ratio = o.ratio; iterations = o.iterations }
  in
  match t with
  | Sharded { router; _ } -> Result.map (fun (o, _) -> of_outcome o) (R.certify router)
  | t ->
      let ctrl = List.hd (controllers t) in
      Result.map
        (fun (o, _) -> of_outcome o)
        (Engine.Certify.sparse ~achieved:(C.utility ctrl) (C.view ctrl))

let counts = function
  | Sharded { router; _ } -> R.counts router
  | t -> [| Engine.View.active_count (C.view (List.hd (controllers t))) |]

let demand = function
  | Sharded { router; _ } -> R.demand router
  | _ -> [||]

let replans t =
  List.fold_left
    (fun acc c -> acc + Engine.Counters.replans (C.counters c))
    0 (controllers t)

let evals t =
  List.fold_left (fun acc c -> acc + Engine.Planner.evals (C.planner c)) 0 (controllers t)

let evictions t =
  List.fold_left (fun acc c -> acc + (C.report c).Engine.Counters.evictions) 0 (controllers t)

(* ---------- Cold recovery ---------- *)

let read_wal path =
  match Wal.recover_file path with
  | Error e -> Error e
  | Ok r when r.Wal.quarantined <> [] || r.Wal.torn_tail ->
      Error (Printf.sprintf "%s: %d record(s) quarantined" path (List.length r.Wal.quarantined))
  | Ok r -> Ok (List.map snd r.Wal.records)

(* The WAL(s) an engine wrote in [dir], recovered into memory. *)
let recover_logs (backend : backend) ~dir =
  match backend with
  | Single | Replicated _ -> Result.map (fun l -> [ l ]) (read_wal (wal_path dir))
  | Sharded shards ->
      List.fold_right
        (fun i acc ->
          match (acc, read_wal (shard_wal_path dir i)) with
          | Ok ls, Ok l -> Ok (l :: ls)
          | (Error _ as e), _ | _, (Error _ as e) -> e)
        (List.init shards Fun.id) (Ok [])

(* Replay recovered logs into fresh controllers over the initial world:
   one controller, or one per shard of a fresh router (each shard's WAL
   replays standalone into its shard's initial sub-world). Returns the
   serving primaries. *)
let replay (backend : backend) ~seed ~every inst logs =
  let policy = C.Every every in
  match (backend, logs) with
  | (Single | Replicated _), [ log ] ->
      let ctrl = C.create ~policy inst in
      C.apply_batch ctrl log;
      [ ctrl ]
  | Sharded shards, logs ->
      let router = R.create ~policy ~split:R.Even ~map:(shard_map ~seed shards) inst in
      List.mapi
        (fun i log ->
          let ctrl = R.controller router i in
          C.apply_batch ctrl log;
          ctrl)
        logs
  | (Single | Replicated _), _ -> invalid_arg "Sut.replay: one log expected"

(* ---------- Transport ---------- *)

type link = Replica.Transport.link

let wrap_link (l : link) ~send ~recv : link =
  { l with Replica.Transport.send = send l.Replica.Transport.send; recv = recv l.Replica.Transport.recv }
