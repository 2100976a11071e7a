(** One engine behind the delta interface every deployment shape
    shares.

    A node absorbs deltas, serves a plan and replans at epochs — the
    head-end loop of the paper's Fig. 1. Who executes a delta differs
    by shape: {!of_controller} is a single controller,
    [Shard.Router.node] routes across shards (each one itself a node)
    and [Replica.Group.node] replicates a primary. Drivers (the replay
    CLI, the discrete-event simulator) are written once against this
    record. *)

type t = {
  apply : ?flush:bool -> Delta.t -> View.applied;
      (** [~flush:false] leaves the node's log records buffered until
          {!flush}: same bytes, one OS flush per batch *)
  apply_batch : Delta.t list -> unit;
      (** bit-identical to {!apply} on each delta in order *)
  flush : unit -> unit;  (** flush the node's log to the OS *)
  view : unit -> View.t;
      (** the world new join specs are drawn against: the controller's
          view, the router's unsharded mirror, the primary's view *)
  controllers : unit -> Controller.t list;
      (** the controllers serving the plan: the controller itself, the
          group's current primary, every shard's in shard order *)
  utility : unit -> float;  (** utility of the plan being served *)
  replan : unit -> unit;  (** force an epoch boundary *)
  report : unit -> Counters.report;
  close : unit -> unit;  (** release what the node owns (logs, links) *)
}

(** [ctrl] as a node, the leaf every deployment shape builds on. With
    [wal], each delta is applied and then appended to it; the writer
    stays its owner's to close, so [close] is a no-op. *)
let of_controller ?wal ctrl =
  let flush () = Option.iter Wal.flush_writer wal in
  let apply ?flush d =
    let applied = Controller.apply ctrl d in
    (match wal with Some w -> ignore (Wal.append_tee ?flush w d) | None -> ());
    applied
  in
  { apply;
    apply_batch =
      (match wal with
      | None -> Controller.apply_batch ctrl
      | Some _ ->
          fun ds ->
            Fun.protect ~finally:flush (fun () ->
                List.iter (fun d -> ignore (apply ~flush:false d)) ds));
    flush;
    view = (fun () -> Controller.view ctrl);
    controllers = (fun () -> [ ctrl ]);
    utility = (fun () -> Controller.utility ctrl);
    replan = (fun () -> Controller.replan ctrl);
    report = (fun () -> Controller.report ctrl);
    close = ignore }
