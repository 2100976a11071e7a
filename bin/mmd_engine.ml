(* mmd_engine: replay a churn delta log through the incremental
   replanning engine.

   FILE is an instance (the initial world) or an engine snapshot from
   a previous run (--snapshot-out), told apart by content; so are the
   two delta-log formats --deltas accepts, the plain text format and
   the CRC-framed WAL (Engine.Wal). --gen-deltas replays a seeded
   synthetic churn log instead.

   Each replay mode builds one Engine.Node and hands it to the same
   replay loop; the mode only decides who executes a delta, which
   boundary events fire, and what the end-of-run report adds. A flag
   the chosen mode does not read is an error, never silently ignored.

   - single (default): one controller. Reads --snapshot-in, --wal-dir,
     --checkpoint-every, --snapshot-out, --snapshot-every, --plan-out
     and --crash-after.
   - replicated (--replicas N): a Replica.Group whose primary WAL-ships
     every record to N followers. Reads --heartbeat-every,
     --kill-primary-at, --hand-over-at, --replica-transport,
     --snapshot-out, --snapshot-every, --plan-out and --crash-after.
   - sharded (--shards N): a Shard.Router over N engine stacks. Reads
     --shard-tags, --split, --rebalance-every, --rebalance-k, and
     --replicas / --heartbeat-every for a replica group per shard.
   - connect (--replica-connect ADDRS): the primary of a socket
     replica set, a Replica.Proc node. Reads --heartbeat-every,
     --replica-kill-at and --replica-kill-mid-frame, but not --compare
     or --certify; it never runs the final replan.

   Every replay mode reads --deltas, --gen-deltas, --seed,
   --deltas-out, --epoch, --batch, --domains, --wal-out (a directory
   of per-shard WALs when sharded), --skip-final-replan, --compare,
   --certify, --stats, --metrics-out and --trace-out. The other socket
   replica processes are no replay: listen (--replica-listen ADDR, one
   follower) reads --epoch, --domains, --replica-id and
   --replica-idle-timeout; supervise (--replica-supervise N, spawning
   N listen processes and a connect one) reads --deltas, --gen-deltas,
   --seed, --epoch, --batch, --wal-out, --heartbeat-every and the
   --replica-* flags, and passes them on.

   Batches (--batch N) never cross a boundary event (a crash, kill,
   hand-over, snapshot, checkpoint or rebalance), so every artifact and
   every replan lands at the same applied-delta position whatever N is.

   Examples:
     mmd_engine inst.mmd --gen-deltas 5000 --seed 7 --deltas-out churn.log
     mmd_engine inst.mmd -d churn.log --wal-out churn.wal \
       --snapshot-out state.eng --snapshot-every 500
     mmd_engine state.eng -d churn.wal           # resume after a crash
     mmd_engine inst.mmd -d churn.log --wal-dir state/ --batch 64
     mmd_engine inst.mmd -d churn.log --replicas 2 --kill-primary-at 2500
     mmd_engine inst.mmd -d churn.log --shards 4 --rebalance-every 500
*)

open Cmdliner
module C = Engine.Controller

(* Every command-line flag; [None] / [false] when not given. *)
type opts = {
  file : string;
  deltas_in : string option;
  gen_deltas : int option;
  seed : int;
  deltas_out : string option;
  epoch : string;
  skip_final : bool;
  compare_scratch : bool;
  snapshot_in : string option;
  snapshot_out : string option;
  snapshot_every : int option;
  plan_out : string option;
  domains : int option;
  wal_out : string option;
  crash_after : int option;
  trace_out : string option;
  metrics_out : string option;
  stats : bool;
  shards : int option;
  shard_tags : string option;
  split : string option;
  rebalance_every : int option;
  rebalance_k : int option;
  replicas : int option;
  heartbeat_every : int option;
  kill_primary_at : int option;
  hand_over_at : int option;
  replica_transport : string option;
  replica_listen : string option;
  replica_connect : string option;
  replica_supervise : int option;
  replica_id : int option;
  replica_idle_timeout : float option;
  replica_kill_at : int option;
  replica_kill_mid_frame : bool;
  batch : int;
  wal_dir : string option;
  checkpoint_every : int option;
  certify : bool;
}

let read_all path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* ---------- Multi-process replica modes ---------- *)

let parse_endpoint s =
  match Replica.Transport_socket.endpoint_of_string s with
  | Ok ep -> ep
  | Error msg -> failwith msg

let parse_endpoints s =
  List.map parse_endpoint
    (List.filter (fun x -> x <> "") (String.split_on_char ',' s))

let rec waitpid_retry pid =
  try Unix.waitpid [] pid
  with Unix.Unix_error (Unix.EINTR, _, _) -> waitpid_retry pid

(* Supervisor: spawn N follower processes + 1 primary process
   (re-execing this very binary), wait on the primary, and — when it
   died by signal (--replica-kill-at SIGKILLs it) — run the recovery
   coordinator over the durable WAL and assert every survivor
   converges bit-identically to the WAL replay. *)
let supervise_run o ~policy ~n ~idle_timeout inst =
  if n < 1 then failwith "--replica-supervise: need at least 1 follower";
  let dir =
    let d =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "mmd-proc-%d" (Unix.getpid ()))
    in
    (try Unix.mkdir d 0o700
     with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    d
  in
  let sock i = Filename.concat dir (Printf.sprintf "follower-%d.sock" i) in
  let addr i = "unix:" ^ sock i in
  let wal =
    Option.value o.wal_out ~default:(Filename.concat dir "primary.wal")
  in
  let exe = Sys.executable_name in
  let ids = List.init n (fun i -> i + 1) in
  let spawn args =
    Unix.create_process exe
      (Array.of_list (exe :: args))
      Unix.stdin Unix.stdout Unix.stderr
  in
  let followers =
    List.map
      (fun i ->
        ( i,
          spawn
            [ o.file; "--replica-listen"; addr i; "--replica-id";
              string_of_int i; "--replica-idle-timeout";
              Printf.sprintf "%g" idle_timeout; "--epoch"; o.epoch ] ))
      ids
  in
  let int_flag flag = function
    | Some n -> [ flag; string_of_int n ]
    | None -> []
  in
  let primary_args =
    [ o.file; "--replica-connect"; String.concat "," (List.map addr ids);
      "--epoch"; o.epoch; "--wal-out"; wal; "--seed"; string_of_int o.seed;
      "--batch"; string_of_int o.batch ]
    @ int_flag "--gen-deltas" o.gen_deltas
    @ (match o.deltas_in with Some p -> [ "--deltas"; p ] | None -> [])
    @ int_flag "--heartbeat-every" o.heartbeat_every
    @ int_flag "--replica-kill-at" o.replica_kill_at
    @ (if o.replica_kill_mid_frame then [ "--replica-kill-mid-frame" ] else [])
  in
  let ppid = spawn primary_args in
  let _, pstatus = waitpid_retry ppid in
  let failed = ref 0 in
  (match pstatus with
  | Unix.WEXITED 0 -> Format.printf "PROC-SUPERVISOR primary exited cleanly@."
  | Unix.WSIGNALED s ->
      Format.printf "PROC-SUPERVISOR primary killed by signal %d; recovering@."
        s;
      (match
         Replica.Proc.recover_and_verify ~policy
           ~endpoints:(List.map (fun i -> parse_endpoint (addr i)) ids)
           ~wal_path:wal ~term:1 inst
       with
      | Ok a ->
          Format.printf
            "PROC-SUPERVISOR survivors=%d divergent=%d wal_records=%d \
             digest=%s@."
            a.followers a.divergent a.applied a.digest;
          if a.divergent > 0 then incr failed
      | Error msg ->
          Format.printf "PROC-SUPERVISOR recovery failed: %s@." msg;
          incr failed)
  | Unix.WEXITED c ->
      Format.printf "PROC-SUPERVISOR primary exited %d@." c;
      incr failed
  | Unix.WSTOPPED _ -> incr failed);
  List.iter
    (fun (i, pid) ->
      let _, st = waitpid_retry pid in
      match st with
      | Unix.WEXITED 0 -> ()
      | Unix.WEXITED c ->
          Format.printf "PROC-SUPERVISOR follower %d exited %d@." i c;
          incr failed
      | Unix.WSIGNALED s | Unix.WSTOPPED s ->
          Format.printf "PROC-SUPERVISOR follower %d died on signal %d@." i s;
          incr failed)
    followers;
  List.iter (fun i -> try Sys.remove (sock i) with Sys_error _ -> ()) ids;
  if o.wal_out = None then (try Sys.remove wal with Sys_error _ -> ());
  (try Unix.rmdir dir with Unix.Unix_error _ -> ());
  Format.printf "PROC-SUPERVISOR done: %d follower(s), %d failure(s)@." n
    !failed;
  if !failed > 0 then begin
    Format.print_flush ();
    exit 5
  end

(* ---------- The replay loop ---------- *)

(* A --deltas file: a CRC-framed WAL, recovered around corruption, or
   a plain log (told apart by content). *)
type log = Wal of Engine.Wal.recovery | Plain of Engine.Delta.t list

let read_log path =
  let text = read_all path in
  if Engine.Wal.is_wal text then
    match Engine.Wal.recover_string text with
    | Ok r -> Wal r
    | Error msg -> failwith msg
  else Plain (Engine.Delta.log_of_string text)

let read_deltas o = Option.map read_log o.deltas_in

(* Count the records a recovery quarantined and say so. *)
let report_quarantined ~what ~note n ~torn =
  if n > 0 then begin
    note n;
    Format.printf "%s: quarantined %d record(s)%s@." what n
      (if torn then " (including a torn tail)" else "")
  end

(* The replay stream as (seq, delta) pairs. Plain and generated logs
   are numbered from [already] (the restored lifetime delta count) —
   continuation semantics for a snapshot-resumed run fed new deltas.
   Under --wal-dir the input log is the same log the crashed run
   consumed from seq 1, so a plain log is numbered from 1 and the
   recovered prefix is skipped like a WAL's. WAL records carry
   their own authoritative sequence numbers and records a snapshot
   already covers are skipped. [log] is the parsed --deltas file (read
   here unless the caller already has it); [note] receives the
   quarantined count for the counters of whichever controller ends up
   replaying; generated churn is drawn against [view]. *)
let load_records o ?(already = 0) ?(note = ignore) ?(log = read_deltas o)
    view =
  let skip ~covered records =
    let fresh, skipped =
      List.partition (fun (seq, _) -> seq > already) records
    in
    if skipped <> [] then
      Format.printf "resume: skipping %d record(s) already %s (up to seq %d)@."
        (List.length skipped) covered already;
    fresh
  in
  let numbered ~from log = List.mapi (fun i d -> (from + i + 1, d)) log in
  match (log, o.gen_deltas) with
  | Some (Wal r), _ ->
      let q = r.Engine.Wal.quarantined in
      report_quarantined ~what:"WAL recovery" ~note (List.length q)
        ~torn:r.Engine.Wal.torn_tail;
      List.iteri
        (fun i (q : Engine.Wal.quarantined) ->
          if i < 10 then Format.printf "  offset %d: %s@." q.offset q.reason)
        q;
      if List.length q > 10 then
        Format.printf "  ... and %d more@." (List.length q - 10);
      skip ~covered:"covered by the snapshot" r.Engine.Wal.records
  | Some (Plain log), _ when o.wal_dir <> None ->
      skip ~covered:"recovered" (numbered ~from:0 log)
  | Some (Plain log), _ -> numbered ~from:already log
  | None, Some n ->
      let rng = Prelude.Rng.create o.seed in
      let log =
        Engine.Churn.generate ~rng view { Engine.Churn.default with deltas = n }
      in
      (match o.deltas_out with
      | Some path ->
          Engine.Delta.write_log path log;
          Format.printf "wrote %d deltas to %s@." n path
      | None -> ());
      numbered ~from:already log
  | None, None -> []

(* A boundary where the replay takes an action. [At (n, f)] runs
   [f chunk] once [n] deltas are applied, before the next chunk (if
   any) is; [Every (k, f)] runs [f ()] after every [k]-th applied
   delta. *)
type event =
  | At of int * ((int * Engine.Delta.t) list -> unit)
  | Every of int * (unit -> unit)

type progress = {
  mutable applied : int;
  mutable last_seq : int;
  mutable chunk : (int * Engine.Delta.t) list;  (** the chunk being applied *)
}

(* Feed [records] to [node] in chunks of at most [batch], never letting
   a chunk cross an event's boundary. With batch = 1 this is the
   per-record loop exactly, and at any batch every event fires at the
   same applied-delta position. *)
let replay ~batch ~events (node : Engine.Node.t) p records =
  let room () =
    List.fold_left
      (fun cut -> function
        | At (n, _) when n > p.applied -> min cut (n - p.applied)
        | At _ -> cut
        | Every (k, _) -> min cut (k - (p.applied mod k)))
      batch events
  in
  let rec take k acc rest =
    match rest with
    | r :: tl when k > 0 -> take (k - 1) (r :: acc) tl
    | _ -> (List.rev acc, rest)
  in
  let rec go = function
    | [] -> ()
    | records ->
        let chunk, rest = take (room ()) [] records in
        List.iter
          (function At (n, f) when n = p.applied -> f chunk | _ -> ())
          events;
        p.chunk <- chunk;
        node.apply_batch (List.map snd chunk);
        p.applied <- p.applied + List.length chunk;
        List.iter (fun (seq, _) -> p.last_seq <- seq) chunk;
        List.iter
          (function
            | Every (k, f) when p.applied mod k = 0 -> f () | _ -> ())
          events;
        go rest
  in
  go records

(* A replay mode: the node plus what the mode adds around the shared
   loop and the shared end-of-run report. *)
type mode = {
  node : Engine.Node.t;
  events : event list;
  already : int;  (** lifetime deltas before this run *)
  seal : unit -> unit;  (** after the final replan, before "applied" *)
  shard_count : int option;  (** the "applied" line names the shards *)
  summary : unit -> unit;  (** before the counter report *)
  epilogue : unit -> unit;  (** after the counter report *)
  partial : ((unit -> int) * (progress -> unit)) option;
      (** when the replay dies mid-log: the node's lifetime delta count
          and what to print; [None] re-raises *)
}

let run_mode o m records =
  let p = { applied = 0; last_seq = m.already; chunk = [] } in
  let t0 = Obs.Clock.now () in
  (try replay ~batch:o.batch ~events:m.events m.node p records
   with (Failure msg | Invalid_argument msg) as e -> (
     match m.partial with
     | None -> raise e
     | Some (lifetime, partial) ->
         (* A batch that died part-way applied a prefix of its chunk;
            count it, so every batch size reports the same position. *)
         let settled = lifetime () - m.already - p.applied in
         List.iteri
           (fun i (seq, _) -> if i < settled then p.last_seq <- seq)
           p.chunk;
         p.applied <- p.applied + settled;
         (* Partial output before dying: the operator can resume from
            the printed seq with a corrected log. *)
         Format.printf "aborted mid-log: %s@." msg;
         partial p;
         Format.print_flush ();
         failwith
           (Printf.sprintf "replay aborted after %d deltas (log seq %d): %s"
              p.applied p.last_seq msg)));
  if not o.skip_final then m.node.replan ();
  m.seal ();
  let elapsed = Obs.Clock.elapsed_since t0 in
  let rate = if elapsed > 0. then float p.applied /. elapsed else 0. in
  (match m.shard_count with
  | Some n ->
      Format.printf
        "applied %d deltas across %d shards in %.3fs wall (%.0f deltas/s \
         aggregate)@."
        p.applied n elapsed rate
  | None ->
      Format.printf "applied %d deltas in %.3fs wall (%.0f deltas/s)@."
        p.applied elapsed rate);
  m.summary ();
  Format.printf "%a@." Engine.Counters.pp_report (m.node.report ());
  m.epilogue ();
  m.node.close ();
  if o.stats then Format.printf "%s@." (Obs.Export.stats_table ());
  (match o.metrics_out with
  | Some path ->
      Obs.Export.write_prometheus path;
      Format.printf "metrics -> %s@." path
  | None -> ());
  match o.trace_out with
  | Some path ->
      Obs.Trace.close ();
      Format.printf "trace -> %s (%d spans)@." path (Obs.Trace.spans_emitted ())
  | None -> ()

(* Simulated crash: no final replan, no snapshot, no cleanup — the
   recovery path has to cope. [flush] makes every applied delta
   durable first (see EXIT STATUS: 3). *)
let crash_events o ~flush ~next_seq =
  match o.crash_after with
  | None -> []
  | Some n ->
      let n = max 0 n in
      [ At
          ( n,
            fun chunk ->
              flush ();
              Format.printf "simulated crash at delta boundary %d%s@." n
                (if next_seq then
                   Printf.sprintf " (next seq %d)" (fst (List.hd chunk))
                 else "");
              Format.print_flush ();
              exit 3 ) ]

let snapshot_events o ctrl =
  match (o.snapshot_every, o.snapshot_out) with
  | Some every, Some path ->
      [ Every (every, fun () -> Engine.Snapshot.write_file path (ctrl ())) ]
  | _ -> []

(* ---------- Single-controller report ---------- *)

let plan_summary o ctrl =
  Format.printf "plan: %d streams transmitted, utility %.6g%s@."
    (List.length (Engine.Planner.admitted (C.planner ctrl)))
    (C.utility ctrl)
    (if C.degraded ctrl then " [degraded]" else "");
  if o.certify then
    (* The checker's verdict is what gets printed — the emitters only
       propose. Small worlds take the dense LP path, large ones the
       tableau-free Lagrangian path; both degrade to "none" rather than
       report an unverified number. *)
    let inst = Engine.View.materialize (C.view ctrl) in
    let achieved = C.utility ctrl in
    match Exact.Certificate.emit ~target:achieved inst with
    | Error msg -> Format.printf "certificate: none (%s)@." msg
    | Ok (cert, method_) -> (
        match Exact.Certificate.check inst cert with
        | Cert.Checker.Rejected msg ->
            Format.printf "certificate: REJECTED by checker (%s)@." msg
        | Cert.Checker.Certified { bound; repaired } ->
            let ratio = Engine.Certify.ratio_of ~achieved ~bound in
            Engine.Counters.note_certificate (C.counters ctrl) ~ratio;
            Format.printf
              "certificate: bound %.6g, achieved %.6g, ratio %.4f (%s%s)@."
              bound achieved ratio
              (Exact.Certificate.string_of_method method_)
              (if repaired then ", repaired" else ""))

let plan_epilogue o ctrl =
  if o.compare_scratch then begin
    let scratch_util, scratch_evals = C.scratch (C.view ctrl) in
    let gap =
      if scratch_util > 0. then
        100. *. (1. -. (C.utility ctrl /. scratch_util))
      else 0.
    in
    Format.printf
      "from-scratch eager solve: utility %.6g (engine gap %.2f%%), %d evals \
       for one solve@."
      scratch_util gap scratch_evals
  end;
  (match o.plan_out with
  | Some path ->
      Mmd.Io.write_assignment path (C.plan ctrl);
      Format.printf "plan -> %s@." path
  | None -> ());
  match o.snapshot_out with
  | Some path ->
      Engine.Snapshot.write_file path ctrl;
      Format.printf "snapshot -> %s@." path
  | None -> ()

(* ---------- Single mode ---------- *)

let chain_path dir = Filename.concat dir "chain.ckpt"

(* Where a single-controller run starts. FILE may itself be a snapshot
   (no full replay then); otherwise --snapshot-in and the --wal-dir
   chain are priced against a full replay of the durable log: the
   segment store under --wal-dir, else the -d log. Recovery.open_
   picks and restores; this prints what it did and returns the store
   records past the restored state. *)
let start o ~policy ~text ~log =
  let module R = Engine.Recovery in
  let instance =
    if Engine.Snapshot.is_snapshot text then None
    else Some (Mmd.Io.of_string text)
  in
  let snapshot = if instance = None then Some o.file else o.snapshot_in in
  let store : Engine.Wal_store.recovery option =
    match o.wal_dir with
    | Some _ when instance = None ->
        failwith
          "--wal-dir starts from an instance; state comes back through the \
           checkpoint chain and the segment store"
    | Some dir when Engine.Wal_store.segments dir <> [] -> (
        match Engine.Wal_store.recover_dir dir with
        | Ok s -> Some s
        | Error msg -> failwith msg)
    | _ -> None (* no segments yet: a fresh store *)
  in
  match instance with
  | Some inst when store = None && (snapshot = None || o.wal_dir <> None) ->
      (* Nothing to recover; a fresh store numbers its records from 1,
         so it starts from the instance. *)
      (C.create ~policy inst, [])
  | _ ->
      let total_records, first_seq =
        match (store, log) with
        | Some s, _ -> (s.last_seq, s.first_seq)
        | None, Some (Wal r) -> (List.length r.Engine.Wal.records, 1)
        | None, Some (Plain l) -> (List.length l, 1)
        | None, None -> (0, 1)
      in
      let r =
        match
          R.open_ ~policy ?instance ?snapshot
            ?chain:(Option.map chain_path o.wal_dir)
            ~total_records ~first_seq ()
        with
        | Ok r -> r
        | Error msg -> failwith ("recovery: " ^ msg)
      in
      let { Engine.Checkpoint.ctrl; covered; increments; torn } = r.state in
      let estimate (c, s) =
        R.choice_to_string c
        ^ Option.fold s ~none:" n/a" ~some:(Printf.sprintf " %.4gs")
      in
      if instance <> None then
        Format.printf "recovery: taking %s (%s; %d record(s) in the log)@."
          (R.choice_to_string r.choice)
          (String.concat " vs " (List.map estimate r.paths))
          total_records;
      (match r.choice with
      | R.Snapshot_tail ->
          Format.printf "%s: %d slots active, utility %.6g@."
            (Option.fold r.fell_back ~none:"restored snapshot"
               ~some:
                 (Printf.sprintf
                    "snapshot damaged (%s); fell back to previous generation"))
            (Engine.View.active_count (C.view ctrl))
            (C.utility ctrl)
      | R.Chain_tail ->
          if torn then
            Format.printf "checkpoint chain: dropped a torn tail increment@.";
          Format.printf
            "restored checkpoint chain: %d increment(s) covering seq %d@."
            increments covered
      | R.Full_replay -> ());
      ( ctrl,
        match store with
        | None -> []
        | Some s ->
            report_quarantined ~what:"segment store"
              ~note:(fun n ->
                Engine.Counters.note_quarantined ~n (C.counters ctrl))
              (List.length s.quarantined) ~torn:s.torn_tail;
            List.filter (fun (seq, _) -> seq > covered) s.records )

let single_mode o ~policy ~text ~wal_writer =
  let log = read_deltas o in
  let ctrl, tail = start o ~policy ~text ~log in
  let store_ctx =
    Option.map
      (fun dir ->
        let store = Engine.Wal_store.open_dir dir in
        (store, Engine.Checkpoint.create_writer ~path:(chain_path dir) ctrl))
      o.wal_dir
  in
  let store = Option.map fst store_ctx and chain = Option.map snd store_ctx in
  (* With --wal-dir the store is both the durable log and the replay
     input: its tail is replayed before any new input record (so churn
     generation sees the recovered world). *)
  if tail <> [] then begin
    let t0 = Obs.Clock.now () in
    C.apply_batch ?on_applied:(Option.map Engine.Checkpoint.note chain) ctrl
      (List.map snd tail);
    Format.printf "replayed %d tail record(s) in %.4fs@." (List.length tail)
      (Obs.Clock.elapsed_since t0)
  end;
  let records =
    load_records o ~already:(C.deltas_applied ctrl)
      ~note:(fun n -> Engine.Counters.note_quarantined ~n (C.counters ctrl))
      ~log (C.view ctrl)
  in
  (* Log first, apply second: a crash between the two re-applies on
     recovery instead of losing an applied record. One OS flush per
     batch; bytes on disk are identical to per-record appends. *)
  let apply_batch deltas =
    Option.iter
      (fun s ->
        List.iter
          (fun d -> ignore (Engine.Wal_store.append_tee ~flush:false s d))
          deltas;
        Engine.Wal_store.flush s)
      store;
    Option.iter
      (fun w ->
        List.iter (fun d -> ignore (Engine.Wal.append_tee ~flush:false w d)) deltas;
        Engine.Wal.flush_writer w)
      wal_writer;
    C.apply_batch ?on_applied:(Option.map Engine.Checkpoint.note chain) ctrl
      deltas
  in
  let checkpoint (store, w) =
    Engine.Checkpoint.checkpoint w ctrl;
    Engine.Wal_store.compact store ~covered:(Engine.Checkpoint.covered w)
  in
  let events =
    (* The checkpoint chain is deliberately NOT advanced by a crash,
       leaving a tail for recovery. *)
    crash_events o ~next_seq:true ~flush:(fun () ->
        Option.iter Engine.Wal.flush_writer wal_writer;
        Option.iter Engine.Wal_store.flush store)
    @ (match store_ctx with
      | Some ctx ->
          let every = Option.value o.checkpoint_every ~default:512 in
          [ Every (every, fun () -> ignore (checkpoint ctx)) ]
      | None -> [])
    @ snapshot_events o (fun () -> ctrl)
  in
  (* The final increment captures the post-replan plan, so a clean
     resume has a zero-record tail; compaction then retires every
     sealed segment. *)
  let seal () =
    Option.iter
      (fun ((store, w) as ctx) ->
        let deleted = checkpoint ctx in
        Format.printf
          "checkpoint chain: %d increment(s), covers seq %d; store: %d \
           segment(s) on disk%s@."
          (Engine.Checkpoint.increments w)
          (Engine.Checkpoint.covered w)
          (List.length (Engine.Wal_store.segments (Engine.Wal_store.dir store)))
          (if deleted > 0 then Printf.sprintf " (%d compacted away)" deleted
           else "");
        Engine.Checkpoint.close_writer w;
        Engine.Wal_store.close store)
      store_ctx
  in
  (* Everything the operator needs to resume is printed even when the
     run dies mid-log: the last applied record, the epoch phase, and
     the full counter report. *)
  let partial p =
    Format.printf "last applied: %d deltas this run (log seq %d)@." p.applied
      p.last_seq;
    Format.printf "lifetime deltas: %d, epoch phase: %d since last replan@."
      (C.deltas_applied ctrl) (C.since_replan ctrl);
    Format.printf "%a@." Engine.Counters.pp_report (C.report ctrl)
  in
  ( { node = { (Engine.Node.of_controller ctrl) with apply_batch };
      events;
      already = C.deltas_applied ctrl;
      seal;
      shard_count = None;
      summary = (fun () -> plan_summary o ctrl);
      epilogue = (fun () -> plan_epilogue o ctrl);
      partial = Some ((fun () -> C.deltas_applied ctrl), partial) },
    records )

(* ---------- Replicated mode ---------- *)

(* The replay goes through a Replica.Group: the primary applies and
   WAL-ships every delta to the followers; --kill-primary-at exercises
   heartbeat detection + promotion mid-log and --hand-over-at a planned
   lease failover. The group's batched apply preserves the per-record
   tick machinery, so heartbeats and failover fire at the same points
   at every batch size. *)
let replicated_mode o ~policy ~replicas ~wal_writer inst =
  let module G = Replica.Group in
  let mk_link =
    match o.replica_transport with
    | None | Some "queue" -> fun _ -> Replica.Transport.queue_link ()
    | Some "socket" -> fun _ -> Replica.Transport_socket.loopback ()
    | Some other -> failwith (Printf.sprintf "unknown replica transport %S" other)
  in
  let g =
    G.create ~policy ~config:(G.heartbeat_config o.heartbeat_every) ~mk_link
      ?wal:wal_writer ~replicas inst
  in
  let at n f = match n with Some n -> [ At (n, fun _ -> f n) ] | None -> [] in
  let events =
    crash_events o ~next_seq:false ~flush:(fun () ->
        Option.iter Engine.Wal.flush_writer wal_writer)
    @ at o.kill_primary_at (fun n ->
          if G.primary_alive g then begin
            Format.printf "killing primary (replica %d) at delta boundary %d@."
              (G.primary_id g) n;
            G.kill_primary g
          end)
    @ at o.hand_over_at (fun n ->
          match G.hand_over g with
          | Ok id ->
              Format.printf
                "hand-over at boundary %d: new primary replica %d, lost 0 \
                 deltas@."
                n id
          | Error msg ->
              Format.printf "hand-over at boundary %d refused: %s@." n msg)
    @ snapshot_events o (fun () -> G.primary g)
  in
  let summary () =
    let converged = G.quiesce g in
    Format.printf
      "replication: %d follower(s), term %d, %d failover(s), primary replica \
       %d%s@."
      (G.replicas g) (G.term g) (G.failovers g) (G.primary_id g)
      (if converged then "" else " [followers NOT converged]");
    if G.failovers g > 0 then
      Format.printf "time to promote: %.6fs@." (G.last_promote_seconds g);
    if G.handovers g > 0 then
      Format.printf "planned hand-overs: %d@." (G.handovers g);
    List.iter
      (fun id ->
        Format.printf "follower %d: acked seq %d (lag %d)@." id
          (Option.value ~default:0 (G.acked g id))
          (Option.value ~default:0 (G.lag g id)))
      (G.live_followers g);
    plan_summary o (G.primary g)
  in
  { node = G.node g;
    events;
    already = 0;
    seal = ignore;
    shard_count = None;
    summary;
    epilogue = (fun () -> plan_epilogue o (G.primary g));
    partial = None }

(* ---------- Multi-process primary ---------- *)

(* The primary of a socket replica set, a node on the replay loop.
   --replica-kill-at SIGKILLs this very process at its boundary, after
   tearing the next record's frame on every wire with
   --replica-kill-mid-frame; the supervisor's recovery path survives
   it. A primary that lives audits its followers' digests. *)
let connect_mode o ~policy ~addrs ~wal_writer inst =
  let module P = Replica.Proc in
  let p =
    P.primary ~policy
      ~heartbeat_every:
        (Replica.Group.heartbeat_config o.heartbeat_every)
          .Replica.Group.heartbeat_every
      ?wal:wal_writer ~endpoints:(parse_endpoints addrs) inst
  in
  let events =
    match o.replica_kill_at with
    | None -> []
    | Some n ->
        [ At
            ( n,
              fun chunk ->
                if o.replica_kill_mid_frame then P.tear p (snd (List.hd chunk));
                Format.print_flush ();
                Unix.kill (Unix.getpid ()) Sys.sigkill ) ]
  in
  let summary () =
    let a = P.finish p in
    Format.printf
      "PROC-PRIMARY applied=%d last_seq=%d followers=%d divergent=%d \
       heartbeat_timeouts=%d%s@."
      a.P.applied a.P.last_seq a.P.followers a.P.divergent
      a.P.heartbeat_timeouts
      (if a.P.converged then "" else " [NOT converged]");
    if a.P.divergent > 0 || not a.P.converged then begin
      Format.print_flush ();
      exit 5
    end
  in
  { node = P.node p;
    events;
    already = 0;
    seal = ignore;
    shard_count = None;
    summary;
    epilogue = ignore;
    partial = None }

(* ---------- Sharded mode ---------- *)

(* Every delta is routed through a Shard.Router over N engine nodes:
   controllers, or with --replicas replica groups, whose handles stay
   here for the end-of-run quiesce. --wal-out names a DIRECTORY
   holding shard-<i>.wal (each replays standalone into a controller
   over that shard's initial sub-world). *)
let sharded_mode o ~policy ~shards inst =
  let module R = Shard.Router in
  let module G = Replica.Group in
  let split =
    match o.split with
    | None | Some "even" -> R.Even
    | Some "demand" -> R.Demand
    | Some other -> failwith (Printf.sprintf "unknown budget split %S" other)
  in
  let tags =
    match o.shard_tags with
    | Some spec ->
        let tags = Array.of_list (String.split_on_char ',' spec) in
        if Array.length tags <> shards then
          failwith
            (Printf.sprintf "--shard-tags names %d racks for %d shards"
               (Array.length tags) shards);
        tags
    | None -> Array.init shards (fun i -> Printf.sprintf "rack%d" (i mod 2))
  in
  let map = Shard.Shard_map.create ~seed:o.seed ~tags () in
  let groups = ref [] in
  let build =
    match o.replicas with
    | Some replicas when replicas > 0 ->
        let config = G.heartbeat_config o.heartbeat_every in
        Some
          (fun ~labels ?wal inst ->
            let g = G.create ~policy ~config ~labels ?wal ~replicas inst in
            groups := g :: !groups;
            G.node g)
    | _ -> None
  in
  let router = R.create ~policy ~split ?wal_dir:o.wal_out ?build ~map inst in
  let moves = ref 0 in
  let events =
    match o.rebalance_every with
    | Some every ->
        [ Every
            ( every,
              fun () ->
                moves :=
                  !moves
                  + R.rebalance router ~k:(Option.value o.rebalance_k ~default:8);
                if split = R.Demand then R.resplit_budgets router ) ]
    | None -> []
  in
  let summary () =
    Format.printf "shard populations:";
    Array.iteri
      (fun i c -> Format.printf " %d:%d[%s]" i c (Shard.Shard_map.tag map i))
      (R.counts router);
    Format.printf "@.";
    if !moves > 0 then Format.printf "rebalance moves: %d@." !moves;
    (match List.rev !groups with
    | [] -> ()
    | groups ->
        let converged = List.for_all G.quiesce groups in
        Format.printf "replication: %d replica(s) per shard, %d failover(s)%s@."
          (Option.value ~default:0 o.replicas)
          (List.fold_left (fun n g -> n + G.failovers g) 0 groups)
          (if converged then "" else " [followers NOT converged]"));
    Format.printf "sharded utility: %.6g@." (R.utility router);
    if o.certify then
      match R.certify router with
      | Error msg -> Format.printf "certificate: none (%s)@." msg
      | Ok (c, _) ->
          Format.printf
            "certificate: bound %.6g, achieved %.6g, ratio %.4f (sparse, \
             composed over %d shard(s)%s)@."
            c.Engine.Certify.bound c.Engine.Certify.achieved
            c.Engine.Certify.ratio shards
            (if c.Engine.Certify.repaired then ", repaired" else "")
  in
  let epilogue () =
    if o.compare_scratch then begin
      let global, evals = R.global_scratch router in
      let loss =
        if global > 0. then 100. *. (1. -. (R.utility router /. global))
        else 0.
      in
      Format.printf
        "single global solve: utility %.6g (cross-shard loss %.2f%%), %d \
         evals@."
        global loss evals
    end
  in
  { node = R.node router;
    events;
    already = 0;
    seal = ignore;
    shard_count = Some shards;
    summary;
    epilogue;
    partial = None }

(* ---------- Mode selection ---------- *)

type kind =
  | Single
  | Replicated of int
  | Sharded of int
  | Listen of string
  | Connect of string
  | Supervise of int

let kind_of o =
  match o with
  | { shards = Some n; _ } ->
      if n < 1 then failwith (Printf.sprintf "--shards %d: need at least 1" n);
      Sharded n
  | { replica_listen = Some listen; _ } -> Listen listen
  | { replica_connect = Some addrs; _ } -> Connect addrs
  | { replica_supervise = Some n; _ } -> Supervise n
  | { replicas = Some r; _ } ->
      if r < 1 then failwith (Printf.sprintf "--replicas %d: need at least 1" r);
      Replicated r
  | _ -> Single

let mode_name = function
  | Single -> "single"
  | Replicated _ -> "replicated"
  | Sharded _ -> "sharded"
  | Listen _ -> "listen"
  | Connect _ -> "connect"
  | Supervise _ -> "supervise"

(* Reject every optional flag the chosen mode does not read, so none is
   silently ignored. *)
let check_flags o kind =
  (match kind with
  | Sharded _ when o.wal_dir <> None ->
      failwith
        "--wal-dir is unsupported with --shards (per-shard WALs live under \
         --wal-out DIR)"
  | Replicated _ when o.snapshot_in <> None ->
      failwith "--replicas and --snapshot-in are mutually exclusive"
  | Replicated _ when o.wal_dir <> None ->
      failwith
        "--wal-dir is unsupported with --replicas (the group's durable log \
         is --wal-out)"
  | _ -> ());
  let mode = mode_name kind in
  let read_in modes =
    List.iter (fun (flag, given) ->
        if given && not (List.mem mode modes) then
          failwith (Printf.sprintf "%s: not read in %s mode" flag mode))
  in
  let some = Option.is_some in
  let replay = [ "single"; "replicated"; "sharded"; "connect" ] in
  read_in ("supervise" :: replay)
    [ ("--deltas", some o.deltas_in); ("--gen-deltas", some o.gen_deltas);
      ("--batch", o.batch <> 1); ("--wal-out", some o.wal_out) ];
  read_in replay
    [ ("--deltas-out", some o.deltas_out);
      ("--skip-final-replan", o.skip_final);
      ("--stats", o.stats); ("--metrics-out", some o.metrics_out);
      ("--trace-out", some o.trace_out) ];
  read_in ("listen" :: replay) [ ("--domains", some o.domains) ];
  read_in [ "single"; "replicated"; "sharded" ]
    [ ("--compare", o.compare_scratch); ("--certify", o.certify) ];
  read_in [ "single" ]
    [ ("--snapshot-in", some o.snapshot_in); ("--wal-dir", some o.wal_dir);
      ("--checkpoint-every", some o.checkpoint_every) ];
  read_in [ "single"; "replicated" ]
    [ ("--snapshot-out", some o.snapshot_out);
      ("--snapshot-every", some o.snapshot_every);
      ("--plan-out", some o.plan_out); ("--crash-after", some o.crash_after) ];
  read_in [ "replicated"; "sharded" ] [ ("--replicas", some o.replicas) ];
  read_in
    ([ "replicated"; "connect"; "supervise" ]
    @ if some o.replicas then [ "sharded" ] else [])
    [ ("--heartbeat-every", some o.heartbeat_every) ];
  read_in [ "replicated" ]
    [ ("--kill-primary-at", some o.kill_primary_at);
      ("--hand-over-at", some o.hand_over_at);
      ("--replica-transport", some o.replica_transport) ];
  read_in [ "sharded" ]
    [ ("--shard-tags", some o.shard_tags); ("--split", some o.split);
      ("--rebalance-every", some o.rebalance_every);
      ("--rebalance-k", some o.rebalance_k) ];
  read_in [ "listen" ]
    [ ("--replica-listen", some o.replica_listen);
      ("--replica-id", some o.replica_id) ];
  read_in [ "connect" ] [ ("--replica-connect", some o.replica_connect) ];
  read_in [ "supervise" ] [ ("--replica-supervise", some o.replica_supervise) ];
  read_in [ "listen"; "supervise" ]
    [ ("--replica-idle-timeout", some o.replica_idle_timeout) ];
  read_in [ "connect"; "supervise" ]
    [ ("--replica-kill-at", some o.replica_kill_at);
      ("--replica-kill-mid-frame", o.replica_kill_mid_frame) ]

let at_least_1 flag = function
  | Some n when n < 1 -> failwith (flag ^ ": need at least 1")
  | _ -> ()

(* Open --wal-out as a single-file WAL, continuing the sequence from
   what the log already holds so crash + resume keeps one coherent
   WAL. *)
let open_wal o =
  match o.wal_out with
  | None -> None
  | Some path ->
      if o.wal_dir <> None then
        failwith "--wal-out and --wal-dir are mutually exclusive";
      let next_seq =
        if Sys.file_exists path then
          match Engine.Wal.recover_file path with
          | Ok r -> r.Engine.Wal.last_seq + 1
          | Error msg ->
              (* Appending would leave a log no reader accepts (a v1
                 WAL, say). *)
              failwith (Printf.sprintf "--wal-out %s: %s" path msg)
        else 1
      in
      Some (Engine.Wal.append_file ~next_seq path)

let engine_run o =
  match
    at_least_1 "--batch" (Some o.batch);
    at_least_1 "--checkpoint-every" o.checkpoint_every;
    at_least_1 "--heartbeat-every" o.heartbeat_every;
    at_least_1 "--snapshot-every" o.snapshot_every;
    at_least_1 "--rebalance-every" o.rebalance_every;
    let kind = kind_of o in
    check_flags o kind;
    Prelude.Pool.set_num_domains o.domains;
    Option.iter Obs.Trace.set_output o.trace_out;
    let policy =
      match C.policy_of_string o.epoch with
      | Ok p -> p
      | Error msg -> failwith msg
    in
    let text = read_all o.file in
    let instance ~refuse =
      if Engine.Snapshot.is_snapshot text then failwith refuse;
      Mmd.Io.of_string text
    in
    let idle_timeout = Option.value o.replica_idle_timeout ~default:30. in
    match kind with
    | Listen listen -> (
        (* Serve until a primary says quit, or nobody talks for the idle
           timeout. The supervisor greps the digest for convergence. *)
        let id = Option.value o.replica_id ~default:0 in
        match
          Replica.Proc.serve ~idle_timeout_s:idle_timeout ~policy
            ~endpoint:(parse_endpoint listen)
            (instance ~refuse:"--replica-listen starts from an instance")
        with
        | Replica.Proc.Quit f ->
            let module F = Replica.Group.Follower in
            Format.printf "PROC-FOLLOWER %d term=%d acked=%d digest=%s@." id
              (F.fterm f) (F.acked f) (Replica.Proc.digest (F.ctrl f))
        | Replica.Proc.Orphaned ->
            Format.printf "PROC-FOLLOWER %d orphaned@." id;
            Format.print_flush ();
            exit 4)
    | Connect addrs ->
        let inst = instance ~refuse:"--replica-connect starts from an instance" in
        let wal_writer = open_wal o in
        let m = connect_mode o ~policy ~addrs ~wal_writer inst in
        let records = load_records o (m.node.view ()) in
        run_mode { o with skip_final = true } m records;
        Option.iter Engine.Wal.close wal_writer
    | Supervise n ->
        supervise_run o ~policy ~n ~idle_timeout
          (instance ~refuse:"--replica-supervise starts from an instance")
    | Single ->
        let wal_writer = open_wal o in
        let m, records = single_mode o ~policy ~text ~wal_writer in
        run_mode o m records;
        Option.iter Engine.Wal.close wal_writer
    | Replicated replicas ->
        let inst =
          instance
            ~refuse:
              "--replicas starts from an instance (replication rebuilds \
               follower state by shipping, not snapshots)"
        in
        let wal_writer = open_wal o in
        let m = replicated_mode o ~policy ~replicas ~wal_writer inst in
        run_mode o m (load_records o (m.node.view ()));
        Option.iter Engine.Wal.close wal_writer
    | Sharded shards ->
        let inst =
          instance
            ~refuse:
              "sharded mode starts from an instance; recovery goes through \
               the per-shard WALs, not a snapshot"
        in
        let m = sharded_mode o ~policy ~shards inst in
        run_mode o m (load_records o (m.node.view ()))
  with
  | () -> Ok ()
  | exception (Failure msg | Invalid_argument msg | Sys_error msg) ->
      Error (`Msg msg)

(* ---------- Command line ---------- *)

let s_single = "SINGLE MODE"
let s_kept = "SINGLE AND REPLICATED MODES"
let s_replicated = "REPLICATED MODE"
let s_sharded = "SHARDED MODE"
let s_proc = "MULTI-PROCESS REPLICA MODES"

let optional ?docs c names ~docv doc =
  Arg.(value & opt (some c) None & info names ?docs ~docv ~doc)

let switch ?docs names doc = Arg.(value & flag & info names ?docs ~doc)

let opts =
  let open Term.Syntax in
  let+ file =
    Arg.(
      required
      & pos 0 (some non_dir_file) None
      & info [] ~docv:"FILE" ~doc:"Instance file or engine snapshot.")
  and+ deltas_in =
    optional Arg.non_dir_file [ "d"; "deltas" ] ~docv:"LOG"
      "Delta log to replay: plain text or WAL (detected by content). WAL \
       replays recover around corrupted records and skip records a restored \
       snapshot already covers."
  and+ gen_deltas =
    optional Arg.int [ "gen-deltas" ] ~docv:"N"
      "Generate a synthetic Zipf churn log of $(docv) deltas and replay it \
       (ignored when $(b,--deltas) is given)."
  and+ seed =
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Churn seed.")
  and+ deltas_out =
    optional Arg.string [ "deltas-out" ] ~docv:"FILE"
      "Write the generated churn log here (plain format)."
  and+ epoch =
    Arg.(
      value & opt string "every:64"
      & info [ "epoch" ] ~docv:"POLICY"
          ~doc:"Replan policy: $(b,every:N), $(b,drift:X) or $(b,manual).")
  and+ skip_final =
    switch [ "skip-final-replan" ] "Do not force a replan after the last delta."
  and+ compare_scratch =
    switch [ "compare" ]
      "Also solve the final state from scratch and print the gap: the \
       eager greedy's utility gap and per-solve evaluation cost, or with \
       $(b,--shards) one global solve and the cross-shard utility loss."
  and+ snapshot_in =
    optional ~docs:s_single Arg.string [ "snapshot-in" ] ~docv:"FILE"
      "With an instance FILE and a WAL $(b,--deltas) (or $(b,--wal-dir)): \
       estimate the cost of restoring $(docv) plus replaying the uncovered \
       tail against the other recovery paths, take the cheapest, and record \
       the choice in the counters (exported as \
       $(b,engine_recovery_path_total)). A damaged snapshot is priced and \
       restored as its previous generation ($(docv).prev), the same rule \
       as a snapshot given as FILE; a missing one leaves the other paths."
  and+ snapshot_out =
    optional ~docs:s_kept Arg.string [ "snapshot-out" ] ~docv:"FILE"
      "Write the engine state (the primary's, when replicated) for a later \
       resume (atomic tmp+rename; the previous generation is kept as \
       $(docv).prev)."
  and+ snapshot_every =
    optional ~docs:s_kept Arg.int [ "snapshot-every" ] ~docv:"N"
      "With $(b,--snapshot-out): also checkpoint every $(docv) applied \
       deltas, so a crash loses at most $(docv) deltas of work beyond the \
       WAL."
  and+ plan_out =
    optional ~docs:s_kept Arg.string [ "plan-out" ] ~docv:"FILE"
      "Write the final plan."
  and+ domains =
    optional Arg.int [ "domains" ] ~docv:"N"
      "Number of OCaml domains for the parallel planner stages (default: \
       $(b,VDMC_DOMAINS), else the machine's recommended count minus one). \
       $(b,1) forces the exact sequential path; plans are bit-identical at \
       every setting."
  and+ wal_out =
    optional Arg.string [ "wal-out" ] ~docv:"FILE"
      "Append every applied delta to this CRC-framed write-ahead log \
       (flushed per batch; sequence numbers continue across resumes). With \
       $(b,--replicas) it is the primary's durable log; with $(b,--shards) \
       it names a directory of per-shard WALs ($(docv)/shard-<i>.wal)."
  and+ crash_after =
    optional ~docs:s_kept Arg.int [ "crash-after" ] ~docv:"N"
      "Simulate a crash: exit(3) at the delta boundary after $(docv) applied \
       deltas — no final replan, no snapshot, no cleanup. For exercising the \
       recovery path."
  and+ trace_out =
    optional Arg.string [ "trace-out" ] ~docv:"FILE"
      "Write tracing spans (replans, recoveries, WAL and snapshot I/O, \
       planner extends) to $(docv) as JSON lines, one span per line, with \
       parent ids that nest across pool tasks."
  and+ metrics_out =
    optional Arg.string [ "metrics-out" ] ~docv:"FILE"
      "Write the metric registry (counters, gauges, latency histograms) to \
       $(docv) in Prometheus text format at the end of the run."
  and+ stats =
    switch [ "stats" ]
      "Print a human-readable table of every metric — counts, mean, \
       p50/p90/p99/max for histograms — after the run."
  and+ shards =
    optional ~docs:s_sharded Arg.int [ "shards" ] ~docv:"N"
      "Run $(docv) independent engine shards behind a router (each a full \
       controller + counters stack; joins go to the least-loaded shard, \
       budgets are split across shards). $(b,--shards 1) is bit-identical \
       to the unsharded engine."
  and+ shard_tags =
    optional ~docs:s_sharded Arg.string [ "shard-tags" ] ~docv:"TAGS"
      "Comma-separated rack tag per shard (default: alternate \
       $(b,rack0),$(b,rack1)); the placement interleave spreads consecutive \
       users across distinct racks."
  and+ split =
    optional ~docs:s_sharded Arg.string [ "split" ] ~docv:"KIND"
      "Per-shard budget split: $(b,even) ($(i,B/N), the default) or \
       $(b,demand) (proportional to observed per-shard demand)."
  and+ rebalance_every =
    optional ~docs:s_sharded Arg.int [ "rebalance-every" ] ~docv:"N"
      "Every $(docv) applied deltas, move at most $(b,--rebalance-k) users \
       from over- to under-populated shards (as ordinary leave/join pairs)."
  and+ rebalance_k =
    optional ~docs:s_sharded Arg.int [ "rebalance-k" ] ~docv:"K"
      "Per-epoch cap on rebalance moves (default 8)."
  and+ replicas =
    optional ~docs:s_replicated Arg.int [ "replicas" ] ~docv:"N"
      "Run a replicated control plane: the primary controller WAL-ships \
       every applied record to $(docv) follower controllers, which stay \
       bit-identical at every acked sequence number. With $(b,--shards), \
       each shard gets its own replica group. Requires an instance FILE \
       (followers rebuild by shipping, not snapshots)."
  and+ heartbeat_every =
    optional ~docs:s_replicated Arg.int [ "heartbeat-every" ] ~docv:"TICKS"
      "With $(b,--replicas) (also per shard) or a multi-process replica \
       set: logical ticks (applied records + idle ticks) between primary \
       heartbeats (default 8, at least 1). Followers drain shipped frames \
       at heartbeat boundaries; the failure-detection timeout scales to at \
       least 3$(b,x) this."
  and+ kill_primary_at =
    optional ~docs:s_replicated Arg.int [ "kill-primary-at" ] ~docv:"N"
      "Unsharded only: kill the primary cold at delta boundary $(docv). The \
       heartbeat failure detector then promotes the most-caught-up follower \
       — which finishes replaying its buffered tail — and the run continues \
       on the new primary with zero divergence."
  and+ hand_over_at =
    optional ~docs:s_replicated Arg.int [ "hand-over-at" ] ~docv:"N"
      "Unsharded only: planned lease-based failover at delta boundary \
       $(docv) — the primary grants a lease to the most-caught-up follower, \
       drains its tail, and flips roles. Zero deltas are lost and the run \
       continues on the new primary with zero divergence; the demoted \
       primary stays in the group as a follower."
  and+ replica_transport =
    optional ~docs:s_replicated Arg.string [ "replica-transport" ] ~docv:"KIND"
      "Unsharded only: the frame transport between primary and followers — \
       $(b,queue) (in-process FIFO, the default) or $(b,socket) (a real \
       loopback socket pair per follower, length-prefixed CRC-framed wire \
       format). Final state is bit-identical across both."
  and+ replica_listen =
    optional ~docs:s_proc Arg.string [ "replica-listen" ] ~docv:"ADDR"
      "Run this process as one follower of a multi-process replica set: \
       listen on $(docv) ($(b,unix:PATH) or $(b,HOST:PORT)), apply frames \
       shipped by a primary, and exit when told to quit (printing the final \
       state digest) or when orphaned past $(b,--replica-idle-timeout) \
       (exit 4)."
  and+ replica_connect =
    optional ~docs:s_proc Arg.string [ "replica-connect" ] ~docv:"ADDRS"
      "Run this process as the primary of a multi-process replica set: dial \
       the comma-separated follower $(docv), then replay the log, logging \
       each batch to the WAL before shipping it over the sockets. There is \
       no final replan. Exits 5 if any follower's final digest diverges."
  and+ replica_supervise =
    optional ~docs:s_proc Arg.int [ "replica-supervise" ] ~docv:"N"
      "Spawn a replica set of $(docv) follower processes plus one primary \
       process (re-executing this binary), supervise them, and — if the \
       primary dies by signal ($(b,--replica-kill-at)) — recover its \
       durable WAL and re-ship the tail so every survivor converges. Exits \
       5 on any divergence or unclean follower exit."
  and+ replica_id =
    optional ~docs:s_proc Arg.int [ "replica-id" ] ~docv:"ID"
      "With $(b,--replica-listen): this follower's id, echoed in its report \
       line (default 0)."
  and+ replica_idle_timeout =
    optional ~docs:s_proc Arg.float [ "replica-idle-timeout" ] ~docv:"SECONDS"
      "With $(b,--replica-listen): exit 4 when no primary connects or speaks \
       for $(docv) seconds (default 30)."
  and+ replica_kill_at =
    optional ~docs:s_proc Arg.int [ "replica-kill-at" ] ~docv:"N"
      "With $(b,--replica-connect) (directly or via \
       $(b,--replica-supervise)): the primary process SIGKILLs itself at \
       delta boundary $(docv) — a real crash, not a simulation."
  and+ replica_kill_mid_frame =
    switch ~docs:s_proc [ "replica-kill-mid-frame" ]
      "With $(b,--replica-kill-at): first append the next record to the WAL \
       and write exactly half of its encoded frame to every follower, then \
       die — leaving a torn frame on every wire that recovery must re-ship."
  and+ batch =
    Arg.(
      value & opt int 1
      & info [ "batch" ] ~docv:"N"
          ~doc:
            "Apply deltas $(docv) at a time through the batched entry point: \
             one counter flush, one tracing span and one WAL OS-flush per \
             batch instead of per record. Batches never cross a snapshot, \
             checkpoint, crash, kill, hand-over or rebalance boundary, so \
             plans and artifacts are bit-identical to $(b,--batch 1) at \
             every $(docv).")
  and+ wal_dir =
    optional ~docs:s_single Arg.string [ "wal-dir" ] ~docv:"DIR"
      "Durable state as a segmented WAL plus a checkpoint chain \
       ($(docv)/chain.ckpt) of delta-encoded increments. Each checkpoint \
       retires the sealed segments it covers, bounding recovery I/O; on \
       startup the cost model picks the cheapest of chain+tail, \
       snapshot+tail and full replay, and the store's uncovered tail is \
       replayed before new input records. Mutually exclusive with \
       $(b,--wal-out)."
  and+ checkpoint_every =
    optional ~docs:s_single Arg.int [ "checkpoint-every" ] ~docv:"N"
      "With $(b,--wal-dir): write a checkpoint increment and compact covered \
       segments every $(docv) applied deltas (default 512)."
  and+ certify =
    switch [ "certify" ]
      "After the final replan, emit an optimality certificate (dense LP \
       duals on small worlds, the tableau-free Lagrangian emitter at \
       scale), re-verify it with the independent checker, and print \
       $(b,bound)/$(b,achieved)/$(b,ratio) — the achieved utility is \
       provably within $(b,ratio) of OPT. With $(b,--shards), each shard \
       certifies its sub-world and the checker composes and re-verifies one \
       global bound against the true budgets. The verified ratio is \
       exported as the $(b,engine_certified_opt_ratio) gauge."
  in
  { file; deltas_in; gen_deltas; seed; deltas_out; epoch; skip_final;
    compare_scratch; snapshot_in; snapshot_out; snapshot_every; plan_out;
    domains; wal_out; crash_after; trace_out; metrics_out; stats; shards;
    shard_tags; split; rebalance_every; rebalance_k; replicas; heartbeat_every;
    kill_primary_at; hand_over_at; replica_transport; replica_listen;
    replica_connect; replica_supervise; replica_id; replica_idle_timeout;
    replica_kill_at; replica_kill_mid_frame; batch; wal_dir; checkpoint_every;
    certify }

let cmd =
  let doc = "replay a churn delta log through the replanning engine" in
  let man =
    [ `S Manpage.s_description;
      `P
        "Replays a delta log ($(b,--deltas) or $(b,--gen-deltas)) through \
         one engine node and reports the final plan. The mode picks the \
         node; a flag the chosen mode does not read is an error.";
      `I
        ( "single (default)",
          "One controller. Also reads the options under SINGLE MODE and \
           SINGLE AND REPLICATED MODES." );
      `I
        ( "replicated ($(b,--replicas) N)",
          "A primary WAL-shipping to N followers. Also reads the options \
           under REPLICATED MODE and SINGLE AND REPLICATED MODES." );
      `I
        ( "sharded ($(b,--shards) N)",
          "A router over N shards. Also reads the options under SHARDED \
           MODE, and $(b,--replicas)/$(b,--heartbeat-every) for a replica \
           group per shard." );
      `P
        "Every replay mode reads the options under OPTIONS. The options \
         under MULTI-PROCESS REPLICA MODES run one process of a socket \
         replica set: $(b,--replica-connect) is a replay mode (without \
         $(b,--compare) or $(b,--certify)); $(b,--replica-listen) and \
         $(b,--replica-supervise) are not; each refuses the options it \
         does not read.";
      `S Manpage.s_arguments;
      `S Manpage.s_options;
      `S s_single;
      `S s_kept;
      `S s_replicated;
      `S s_sharded;
      `S s_proc;
      `S Manpage.s_exit_status;
      `P
        "$(b,0) on success; $(b,3) when $(b,--crash-after) fired its \
         simulated crash (the WAL is flushed first, so every applied delta \
         is recoverable); $(b,4) when a $(b,--replica-listen) follower was \
         orphaned past its idle timeout; $(b,5) when a multi-process \
         replica set diverged or a supervised process exited uncleanly; \
         Cmdliner's usual codes otherwise." ]
  in
  Cmd.v (Cmd.info "mmd_engine" ~doc ~man) Term.(term_result (const engine_run $ opts))

let () = exit (Cmd.eval cmd)
