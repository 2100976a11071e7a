(* One workload, run end to end in the calling process.

   The run generates one seeded stream of [2 * rounds] segments of [n]
   deltas and, in order:
   1. the reference pass: the whole stream through a fresh engine, one
      delta per call, untimed. It warms the process up, measures plan
      quality (served utility after every delta, its ratio to a global
      from-scratch solve at eight checkpoints, a checked certificate at
      the end) and records the reference plans and WAL bytes;
   2. [rounds] rounds on one long-lived engine that takes the stream
      segment by segment. Each round runs
      - a closed segment: [n] deltas back to back, one apply call per
        delta, each decoded from its text line;
      - in even rounds a cold recovery from the first closed segment's
        WAL to a serving plan, in odd rounds a set-up probe (an engine
        created and closed);
      - an open-loop segment: the next [n] deltas, delta i due at
        t0 + i/rate; each wake applies every due delta in one batch
        call, and latencies run from the due time;
   3. with tracing on, a traced closed pass over the first segment for
      the per-layer numbers.

   Set-up time is the median over the probes. Every other timed metric
   is its best round ({!best}). Rounds interleave the kinds of
   measurement across the whole run, so every metric samples the
   host's fast and slow spells alike.

   Every engine starts on the same world and takes the same deltas, so
   its plan must be bit-identical to the reference pass's at the same
   point, and its WAL bytes too. *)

type workload = {
  name : string;
  why : string;
  params : Workload.params;
  every : int;  (** epoch replan policy: every N deltas (per shard) *)
  rate : float;  (** open-loop deltas per second *)
  backend : Sut.backend;
}

let churn = [| 10.; 10.; 1.; 0.01 |]

(* Open-loop rates keep each engine 10-15% busy on the host of
   README.md. Near saturation a small slowdown of the host grows the
   queue behind every replan, so latency percentiles would move several
   times as much as the host's speed; at this load they move with it. *)
let workloads =
  [ { name = "steady";
      why =
        "viewer churn on a mid-size head-end: the epoch replan is most of apply time, so replan work shows here";
      params = { streams = 1000; users = 2500; density = 0.01; mix = churn };
      every = 64;
      rate = 1000.;
      backend = Single };
    { name = "replicated";
      why =
        "cheap planning behind 2 socket followers: WAL, frames, sockets and follower apply set throughput and durable latency";
      params = { streams = 150; users = 300; density = 0.08; mix = churn };
      every = 100;
      rate = 1500.;
      backend = Replicated 2 };
    { name = "sharded";
      why =
        "4 shards behind a router: routing, cost and budget broadcast, and the utility split budgets lose against one global solve";
      params = { streams = 500; users = 4000; density = 0.01; mix = churn };
      every = 64;
      rate = 3000.;
      backend = Sharded 4 } ]

let find name = List.find_opt (fun w -> w.name = name) workloads

(* Each open-loop segment lasts this long at the workload's rate; it
   fixes [n], the number of deltas per segment. *)
let open_s = 0.25

(* Deltas per segment: [open_s] worth at the workload's rate, rounded
   up to whole replan epochs of the engine, so that every segment holds
   the same number of epoch replans at the same offsets. *)
let segment_length ~smoke w =
  let raw = int_of_float (w.rate *. open_s) in
  if smoke then max 20 (raw / 100)
  else
    let epoch = match w.backend with Sut.Sharded k -> k * w.every | _ -> w.every in
    epoch * ((raw + epoch - 1) / epoch)

(* Rounds per second of [--seconds]. *)
let rounds_per_second = 2

(* The smoke run: about 100x fewer world entries and deltas. *)
let shrink w =
  let p = w.params in
  { w with
    params =
      { p with
        streams = max 10 (p.streams / 10);
        users = max 20 (p.users / 10);
        density = Float.min 0.5 (p.density *. 10.) } }

(* ---------- Metrics ---------- *)

type metric = { name : string; unit_ : string; value : float; samples : int }

(* Declared in BENCHMARK.json, in this order. The latency medians are
   over user joins only: joins and leaves come in equal numbers and a
   leave applies in about a third of a join's time, so the median over
   all deltas falls in the gap between the two and jumps across it
   whenever a few more or fewer deltas wait behind a replan. A join is
   also the delta a viewer waits on. *)
let end_to_end =
  [ ("setup_s", "s");
    ("ingest_dps", "1/s");
    ("reflect_join_p50_us", "us");
    ("reflect_p99_us", "us");
    ("durable_join_p50_us", "us");
    ("durable_p99_us", "us");
    ("recovery_s", "s");
    ("plan_utility", "utility");
    ("certified_ratio", "ratio");
    ("utility_vs_global", "ratio");
    ("peak_heap_mb", "MB") ]

let layer_stats prefix stats = List.map (fun s -> (prefix ^ "." ^ fst s, snd s)) stats
let calls_busy_p99 = [ ("calls", "count"); ("busy_s", "s"); ("p99_us", "us") ]

let per_layer =
  [ ("delta.decode.busy_s", "s");
    ("delta.decode.p99_us", "us");
    ("gc.minor_words_per_delta", "words");
    ("gc.major_collections", "count") ]
  @ List.concat_map
      (fun k -> layer_stats ("controller.apply." ^ k) calls_busy_p99)
      [ "join"; "leave"; "cost" ]
  @ layer_stats "controller.replan"
      [ ("calls", "count"); ("busy_s", "s"); ("p50_us", "us"); ("p99_us", "us");
        ("wall_share", "ratio") ]
  @ [ ("planner.evals_per_replan", "count"); ("planner.evictions", "count") ]
  @ layer_stats "wal.append" [ ("busy_s", "s"); ("p99_us", "us") ]
  @ layer_stats "transport.send" calls_busy_p99
  @ [ ("transport.recv.busy_s", "s"); ("transport.bytes_per_delta", "bytes") ]
  @ layer_stats "group.ship" [ ("busy_s", "s"); ("p99_us", "us") ]
  @ layer_stats "group.ack_round" calls_busy_p99
  @ [ ("group.lag_max_records", "count");
      ("wal.recover.busy_s", "s");
      ("recovery.replay.busy_s", "s");
      ("wal.bytes_per_delta", "bytes") ]
  @ layer_stats "router.apply" [ ("busy_s", "s"); ("p99_us", "us") ]
  @ layer_stats "router.replan" [ ("calls", "count"); ("busy_s", "s") ]
  @ [ ("router.broadcast.busy_s", "s");
      ("router.shard_skew", "ratio");
      ("router.global_scratch_s", "s");
      ("cert.sparse.busy_s", "s");
      ("cert.sparse.iterations", "count");
      ("router.certify.busy_s", "s");
      ("driver.wake_late_p99_us", "us");
      ("driver.backlog_max", "count");
      ("driver.unattributed_share", "ratio");
      ("trace.overhead_pct", "%") ]

(* Nearest-rank quantile of a sorted array; 0 when empty. *)
let quantile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.
  else sorted.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float n)) - 1)))

let sorted a =
  let a = Array.copy a in
  Array.sort compare a;
  a

let median l = quantile (sorted (Array.of_list l)) 0.5
let mean l = List.fold_left ( +. ) 0. l /. float (List.length l)

let now = Span.now

let time f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

let rec remove_tree path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

(* Every WAL file a pass wrote, concatenated in name order. *)
let wal_text dir =
  let files = Sys.readdir dir in
  Array.sort compare files;
  String.concat ""
    (Array.to_list
       (Array.map
          (fun f -> In_channel.with_open_bin (Filename.concat dir f) In_channel.input_all)
          files))

(* ---------- Passes ---------- *)

(* State shared by the passes of one run. *)
type ctx = {
  w : workload;
  seed : int;
  inst : Mmd.Instance.t;
  dir : string;
  n : int;  (** deltas per segment *)
  lines : string array;  (** the whole stream: [rounds] segments of [n] deltas *)
  mutable checks : (string * bool) list;  (** newest first *)
  mutable attempted : int;
  mutable failed : int;
  mutable setups : float list;
  mutable dirs : int;
  mutable after_first : (string * int64) list option;
      (** the quality pass's plan fingerprint after the first segment *)
  mutable after_all : (string * int64) list option;  (** ... after the whole stream *)
  mutable wal_all : string;  (** the quality pass's WAL bytes *)
}

let check c name ok =
  if List.mem_assoc name c.checks then
    c.checks <- List.map (fun (k, v) -> (k, if k = name then v && ok else v)) c.checks
  else c.checks <- (name, ok) :: c.checks

let new_dir c =
  c.dirs <- c.dirs + 1;
  let d = Filename.concat c.dir (Printf.sprintf "engine-%d" c.dirs) in
  Unix.mkdir d 0o755;
  d

(* A fresh engine on the initial world, its set-up time recorded. *)
let fresh ?mk_link c =
  let d = new_dir c in
  let e, dt =
    time (fun () -> Sut.create ?mk_link ~seed:c.seed ~every:c.w.every ~dir:d c.w.backend c.inst)
  in
  c.setups <- dt :: c.setups;
  (e, d)

let decode line bad =
  match Sut.decode line with
  | Ok d -> Some d
  | Error _ ->
      incr bad;
      None

(* At the end of an engine's life, after [len] deltas of which [bad]
   failed to decode or apply: drive replication to convergence, check
   the plan, count failures (an infeasible plan fails every delta) and
   close the engine. *)
let settle c ~len ~bad e =
  let converged = Sut.quiesce e in
  let applied = len - bad in
  let unacked = max 0 (applied - Sut.durable e ~applied) in
  let feasible = Sut.feasible e in
  check c "replicas converge" converged;
  check c "every plan is feasible" feasible;
  check c "followers are bit-identical to the primary" (Sut.followers_identical e);
  c.attempted <- c.attempted + len;
  c.failed <- c.failed + if feasible then bad + unacked else len;
  Sut.close e

let matches reference ctrls = Some (Sut.fingerprint ctrls) = reference

(* Deltas [lo, hi) back to back, one apply call each. Returns the
   throughput. *)
let closed_segment ?(observe = fun _ _ -> ()) c e ~bad ~lo ~hi =
  let (), dt =
    time (fun () ->
        for i = lo to hi - 1 do
          (match decode c.lines.(i) bad with
          | Some delta -> ( try Sut.apply e delta with _ -> incr bad)
          | None -> ());
          observe i e
        done)
  in
  float (hi - lo) /. dt

type quality = {
  utility : float;  (** mean served utility after each delta *)
  vs_global : float;  (** mean ratio to a global scratch solve over the checkpoints *)
  scratch_s : float;  (** median global scratch solve time *)
  cert : (Sut.certificate, string) result;
  cert_s : float;
  demand : float array;
}

let checkpoints = 8

(* The whole stream through one engine, untimed: warms the process up,
   measures plan quality and records the reference plans and WAL. *)
let quality_pass c ~final_users =
  let total = Array.length c.lines in
  let e, d = fresh c in
  let utility_sum = ref 0. and ratios = ref [] and scratch = ref [] and bad = ref 0 in
  let observe i e =
    let u = Sut.utility e in
    utility_sum := !utility_sum +. u;
    if i = c.n - 1 then c.after_first <- Some (Sut.fingerprint (Sut.controllers e));
    if (i + 1) * checkpoints mod total < checkpoints then begin
      let global, dt = time (fun () -> Sut.global_scratch e) in
      scratch := dt :: !scratch;
      ratios := (if global > 0. then u /. global else nan) :: !ratios
    end
  in
  ignore (closed_segment c e ~bad ~lo:0 ~hi:total ~observe);
  check c "routing keeps every active user" (Array.fold_left ( + ) 0 (Sut.counts e) = final_users);
  let cert, cert_s = time (fun () -> Sut.certify e) in
  check c "certificate accepted with bound >= achieved"
    (match cert with Ok k -> k.bound >= k.achieved | Error _ -> false);
  let demand = Sut.demand e in
  c.after_all <- Some (Sut.fingerprint (Sut.controllers e));
  settle c ~len:total ~bad:!bad e;
  c.wal_all <- wal_text d;
  remove_tree d;
  { utility = !utility_sum /. float total;
    vs_global = mean !ratios;
    scratch_s = median !scratch;
    cert;
    cert_s;
    demand }

(* Cold recovery: read the WAL(s) in [dir], rebuild, replay to a
   serving plan, and check it against [reference]. Returns (read,
   replay) seconds. *)
let recover c dir ~reference =
  let logs, read_s = time (fun () -> Sut.recover_logs c.w.backend ~dir) in
  match logs with
  | Error _ ->
      check c "WAL recovers cleanly" false;
      (read_s, 0.)
  | Ok logs ->
      let ctrls, replay_s =
        time (fun () -> Sut.replay c.w.backend ~seed:c.seed ~every:c.w.every c.inst logs)
      in
      check c "recovered controllers are bit-identical to the primary" (matches reference ctrls);
      (read_s, replay_s)

type open_loop = {
  reflect : float array;  (** per delta, seconds from due to applied *)
  durable : float array;  (** per delta, seconds from due to durable *)
  joins : bool array;  (** per delta, whether it is a user join *)
  wake_late : float list;
  backlog_max : int;
}

(* Deltas [lo, hi) on a schedule: delta i is due at t0 + (i - lo)/rate,
   and each wake applies every due delta in one batch call. Deltas map
   to WAL seqs in apply order, so [durable] counts from the engine's
   start. *)
let open_segment c e ~bad ~lo ~hi =
  let len = hi - lo in
  let period = 1. /. c.w.rate in
  let reflect = Array.make len nan and durable = Array.make len nan in
  let wake_late = ref [] and backlog_max = ref 0 in
  let t0 = now () +. 0.001 in
  let due i = t0 +. (float (i - lo) *. period) in
  let next = ref lo and durable_hi = ref lo in
  let mark_durable upto t =
    for j = !durable_hi to upto - 1 do
      durable.(j - lo) <- t -. due j
    done;
    durable_hi := max !durable_hi upto
  in
  while !next < hi do
    let t = now () in
    let top = ref !next in
    while !top < hi && due !top <= t do
      incr top
    done;
    if !top = !next then begin
      (* Idle until the next delta is due. Spin rather than sleep: timer
         slack and a core waking from idle would otherwise land in the
         latencies. *)
      let target = due !next in
      while now () < target do
        ()
      done;
      wake_late := (now () -. target) :: !wake_late
    end
    else begin
      let first = !next and top = !top in
      backlog_max := max !backlog_max (top - first);
      let batch =
        List.filter_map (fun j -> decode c.lines.(j) bad) (List.init (top - first) (( + ) first))
      in
      (try Sut.apply_batch e batch with _ -> bad := !bad + List.length batch);
      let t1 = now () in
      for j = first to top - 1 do
        reflect.(j - lo) <- t1 -. due j
      done;
      mark_durable (min top (Sut.durable e ~applied:top)) t1;
      next := top
    end
  done;
  (* Deltas still unacked at the end become durable when replication
     converges. *)
  ignore (Sut.quiesce e);
  mark_durable (min hi (Sut.durable e ~applied:hi)) (now ());
  let joins =
    Array.init len (fun i ->
        match Sut.decode c.lines.(lo + i) with Ok d -> Sut.kind d = "join" | Error _ -> false)
  in
  { reflect; durable; joins; wake_late = !wake_late; backlog_max = !backlog_max }

let copy_dir src dst =
  Unix.mkdir dst 0o755;
  Array.iter
    (fun f ->
      let text = In_channel.with_open_bin (Filename.concat src f) In_channel.input_all in
      Out_channel.with_open_bin (Filename.concat dst f) (fun oc -> Out_channel.output_string oc text))
    (Sys.readdir src)

(* An untraced closed pass over the first segment on a fresh engine,
   the traced pass's baseline. Returns its wall time. *)
let untraced_pass c =
  let e, d = fresh c in
  let bad = ref 0 in
  Gc.full_major ();
  let dps = closed_segment c e ~bad ~lo:0 ~hi:c.n in
  settle c ~len:c.n ~bad:!bad e;
  remove_tree d;
  float c.n /. dps

(* The traced closed pass over the first segment: a root span per
   delta, children around the layer calls. Fills [set] with the
   per-layer metrics; returns the spans and the pass's wall time. *)
let traced_pass c ~first_wal ~set =
  let n = c.n in
  let rec_ = Span.create () in
  let sent_bytes = ref 0 in
  let mk_link id =
    (* Only sends and receives made inside a delta's span are recorded;
       convergence after the pass is not the ingest path. *)
    Sut.wrap_link (Sut.loopback id)
      ~send:(fun send s ->
        if rec_.Span.open_ < 0 then send s
        else begin
          sent_bytes := !sent_bytes + String.length s;
          Span.with_ rec_ "transport.send" (fun () -> send s)
        end)
      ~recv:(fun recv () ->
        if rec_.Span.open_ < 0 then recv () else Span.with_ rec_ "transport.recv" recv)
  in
  let e, d = fresh ~mk_link c in
  let ctrls = Array.of_list (Sut.controllers e) in
  let evals0 = Sut.evals e and replans0 = Sut.replans e and evictions0 = Sut.evictions e in
  let lag_max = ref 0 in
  let bad = ref 0 in
  (* A layer call's span is named once the call has returned: a call
     after which the epoch counter is back at 0 replanned, and a group
     call after which the slowest follower's ack moved was an ack
     round. *)
  let layer name call =
    let id = Span.enter rec_ name in
    Fun.protect ~finally:(fun () -> Span.leave rec_ id) call;
    id
  in
  let apply d =
    match e with
    | Sut.Single { ctrl; wal } ->
        let id = layer ("controller.apply." ^ Sut.kind d) (fun () -> Sut.controller_apply ctrl d) in
        if Sut.since_replan ctrl = 0 then Span.rename rec_ id "controller.replan";
        ignore (layer "wal.append" (fun () -> Sut.wal_append wal d))
    | Sut.Replicated { group; _ } ->
        let acked = Sut.min_acked group in
        let id = layer "group.ship" (fun () -> Sut.group_apply group d) in
        if Sut.min_acked group > acked then Span.rename rec_ id "group.ack_round";
        lag_max := max !lag_max (Sut.max_lag e)
    | Sut.Sharded { router; _ } ->
        let before = Array.map Sut.deltas_applied ctrls in
        let name = match Sut.kind d with "cost" | "budget" -> "router.broadcast" | _ -> "router.apply" in
        let id = layer name (fun () -> Sut.router_apply router d) in
        let replanned = ref false in
        Array.iteri
          (fun i ctrl ->
            if Sut.deltas_applied ctrl <> before.(i) && Sut.since_replan ctrl = 0 then replanned := true)
          ctrls;
        if !replanned then Span.rename rec_ id "router.replan"
  in
  Gc.full_major ();
  let gc0 = Gc.quick_stat () in
  let minor0 = Gc.minor_words () in
  let (), wall =
    time (fun () ->
        for i = 0 to n - 1 do
          Span.root rec_ ~trace:i "delta" (fun () ->
              match Span.with_ rec_ "delta.decode" (fun () -> decode c.lines.(i) bad) with
              | Some d -> ( try apply d with _ -> incr bad)
              | None -> ())
        done)
  in
  let minor1 = Gc.minor_words () in
  let gc1 = Gc.quick_stat () in
  set "gc.minor_words_per_delta" ((minor1 -. minor0) /. float n);
  set "gc.major_collections" (float (gc1.Gc.major_collections - gc0.Gc.major_collections));
  let replans = Sut.replans e - replans0 in
  set "planner.evals_per_replan" (float (Sut.evals e - evals0) /. float (max 1 replans));
  set "planner.evictions" (float (Sut.evictions e - evictions0));
  set "group.lag_max_records" (float !lag_max);
  set "transport.bytes_per_delta" (float !sent_bytes /. float n);
  check c "traced pass reproduces the reference plan" (matches c.after_first (Sut.controllers e));
  settle c ~len:n ~bad:!bad e;
  check c "traced pass writes the reference WAL bytes" (wal_text d = first_wal);
  let read_s, replay_s = recover c d ~reference:c.after_first in
  remove_tree d;
  set "wal.recover.busy_s" read_s;
  set "recovery.replay.busy_s" replay_s;
  let layers = Span.layers rec_ in
  Hashtbl.iter
    (fun name (l : Span.layer) ->
      set (name ^ ".calls") (float l.calls);
      set (name ^ ".busy_s") l.busy_s;
      set (name ^ ".p50_us") (1e6 *. quantile l.durations 0.5);
      set (name ^ ".p99_us") (1e6 *. quantile l.durations 0.99))
    layers;
  (match Hashtbl.find_opt layers "controller.replan" with
  | Some l -> set "controller.replan.wall_share" (Array.fold_left ( +. ) 0. l.durations /. wall)
  | None -> ());
  set "driver.unattributed_share" (Span.unattributed_share rec_);
  (rec_, wall)

(* Untraced and traced passes over the first segment, alternately, three
   of each: the per-layer metrics and spans are the last traced pass's,
   and the tracing overhead compares the median wall times. *)
let traced c ~first_wal ~set =
  let passes =
    List.init 3 (fun _ ->
        let untraced = untraced_pass c in
        let spans, wall = traced_pass c ~first_wal ~set in
        (untraced, wall, spans))
  in
  let untraced = median (List.map (fun (u, _, _) -> u) passes)
  and wall = median (List.map (fun (_, w, _) -> w) passes) in
  set "trace.overhead_pct" (100. *. ((wall /. untraced) -. 1.));
  let _, _, spans = List.nth passes 2 in
  spans

(* ---------- The run ---------- *)

type result = {
  workload : workload;
  deltas : int;  (** per segment *)
  rounds : int;
  attempted : int;
  failed : int;
  checks : (string * bool) list;  (** in run order *)
  metrics : metric list;  (** end-to-end, then per-layer when traced *)
  series : (string * float array) list;  (** per-round values behind the timed metrics *)
  spans : Span.t option;
}

(* The timed values of one round; [recovery] is nan in the rounds that
   probe set-up instead. *)
type round = { ingest : float; recovery : float; o : open_loop }

let pct a q = 1e6 *. quantile (sorted a) q

(* The host's speed moves between levels in spells of seconds to
   minutes, and every timed metric of the benchmark moves with it, by
   up to half. A median over rounds follows the share of a run that
   slow spells cover, so runs disagree by the full gap. Each per-round
   metric is reported at its best round instead: the program's speed in
   the fastest state the host reached during the run. Every round does
   the same work, so no round can read faster than the program runs. *)
let best ~better values =
  let finite = List.filter Float.is_finite (Array.to_list values) in
  List.fold_left (if better = `Higher then Float.max else Float.min) (List.hd finite) finite

let run ?(smoke = false) ~seed ~seconds ~trace ~dir w =
  Sut.pin_one_domain ();
  let n = segment_length ~smoke w in
  let rounds = if smoke then 3 else max 3 (rounds_per_second * seconds) in
  let w = if smoke then shrink w else w in
  let gen = Workload.create ~seed w.params in
  let inst = Workload.world gen in
  let total = 2 * rounds * n in
  let lines = Workload.deltas gen total in
  let c =
    { w; seed; inst; dir; n; lines; checks = []; attempted = 0; failed = 0; setups = []; dirs = 0;
      after_first = None; after_all = None; wal_all = "" }
  in
  let q = quality_pass c ~final_users:(Workload.active_users gen) in
  let layer_values = Hashtbl.create 64 in
  let set name v = Hashtbl.replace layer_values name v in
  (* One engine takes the stream segment by segment, alternately one
     delta per call (closed loop) and on a schedule (open loop). Between
     the two comes, in alternate rounds, a cold recovery from the first
     segment's WAL or a set-up probe (an engine created and closed), so
     both are sampled across the whole run. *)
  Gc.full_major ();
  let e, engine_dir = fresh c in
  c.setups <- [];
  let bad = ref 0 in
  let first_wal_dir = Filename.concat dir "first-segment" in
  let rs =
    Array.init rounds (fun r ->
        let lo = 2 * r * n in
        let ingest = closed_segment c e ~bad ~lo ~hi:(lo + n) in
        if r = 0 then copy_dir engine_dir first_wal_dir;
        let recovery =
          if r mod 2 = 0 then
            let read_s, replay_s = recover c first_wal_dir ~reference:c.after_first in
            read_s +. replay_s
          else begin
            let probe, probe_dir = fresh c in
            Sut.close probe;
            remove_tree probe_dir;
            nan
          end
        in
        (* The recovered or probed engine is garbage now; collect it
           here rather than in the open segment's time. *)
        Gc.full_major ();
        let o = open_segment c e ~bad ~lo:(lo + n) ~hi:(lo + (2 * n)) in
        { ingest; recovery; o })
  in
  let peak_heap_mb = float (Gc.quick_stat ()).Gc.top_heap_words *. float (Sys.word_size / 8) /. 1e6 in
  check c "the engine reproduces the reference plan" (matches c.after_all (Sut.controllers e));
  settle c ~len:total ~bad:!bad e;
  check c "the engine writes the reference WAL bytes" (wal_text engine_dir = c.wal_all);
  remove_tree engine_dir;
  let first_wal = wal_text first_wal_dir in
  set "wal.bytes_per_delta" (float (String.length first_wal) /. float n);
  let finite a = Array.of_list (List.filter Float.is_finite (Array.to_list a)) in
  let joins o a = finite (Array.mapi (fun i x -> if o.joins.(i) then x else nan) a) in
  let per_round f = Array.map f rs in
  let series =
    [ ("ingest_dps", per_round (fun r -> r.ingest));
      ("recovery_s", per_round (fun r -> r.recovery));
      ("setup_s", Array.of_list (List.rev c.setups));
      ("reflect_join_p50_us", per_round (fun r -> pct (joins r.o r.o.reflect) 0.5));
      ("reflect_p99_us", per_round (fun r -> pct r.o.reflect 0.99));
      ("durable_join_p50_us", per_round (fun r -> pct (joins r.o r.o.durable) 0.5));
      ("durable_p99_us", per_round (fun r -> pct (finite r.o.durable) 0.99)) ]
  in
  let best ?(better = `Lower) name = best ~better (List.assoc name series) in
  let join_samples =
    Array.fold_left (fun acc r -> Array.fold_left (fun acc j -> if j then acc + 1 else acc) acc r.o.joins) 0 rs
  in
  let e2e =
    [ ("setup_s", median c.setups, List.length c.setups);
      ("ingest_dps", best ~better:`Higher "ingest_dps", rounds * n);
      ("reflect_join_p50_us", best "reflect_join_p50_us", join_samples);
      ("reflect_p99_us", best "reflect_p99_us", rounds * n);
      ("durable_join_p50_us", best "durable_join_p50_us", join_samples);
      ("durable_p99_us", best "durable_p99_us", rounds * n);
      ("recovery_s", best "recovery_s", (rounds + 1) / 2);
      ("plan_utility", q.utility, total);
      ("certified_ratio", (match q.cert with Ok k -> k.ratio | Error _ -> nan), 1);
      ("utility_vs_global", q.vs_global, checkpoints);
      ("peak_heap_mb", peak_heap_mb, 1) ]
  in
  List.iter
    (fun (name, v, _) -> check c (name ^ " is finite and positive") (Float.is_finite v && v > 0.))
    e2e;
  let spans = if trace then Some (traced c ~first_wal ~set) else None in
  (match w.backend with
  | Sut.Sharded _ ->
      let d = q.demand in
      let mean = Array.fold_left ( +. ) 0. d /. float (Array.length d) in
      set "router.shard_skew" (if mean > 0. then Array.fold_left Float.max 0. d /. mean else 0.);
      set "router.global_scratch_s" q.scratch_s;
      set "router.certify.busy_s" q.cert_s
  | Sut.Single | Sut.Replicated _ -> set "cert.sparse.busy_s" q.cert_s);
  (match q.cert with Ok k -> set "cert.sparse.iterations" (float k.iterations) | Error _ -> ());
  set "driver.wake_late_p99_us"
    (pct (Array.of_list (List.concat_map (fun r -> r.o.wake_late) (Array.to_list rs))) 0.99);
  set "driver.backlog_max" (float (Array.fold_left (fun acc r -> max acc r.o.backlog_max) 0 rs));
  let e2e_metrics =
    List.map2
      (fun (name, unit_) (name', value, samples) ->
        assert (name = name');
        { name; unit_; value; samples })
      end_to_end e2e
  in
  let layer_metrics =
    if not trace then []
    else
      List.map
        (fun (name, unit_) ->
          let value = Option.value ~default:0. (Hashtbl.find_opt layer_values name) in
          { name; unit_; value; samples = n })
        per_layer
  in
  { workload = w;
    deltas = n;
    rounds;
    attempted = c.attempted;
    failed = c.failed;
    checks = List.rev c.checks;
    metrics = e2e_metrics @ layer_metrics;
    series;
    spans }
