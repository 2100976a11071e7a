(** One engine behind the delta interface every deployment shape
    shares.

    A node absorbs deltas, serves a plan and replans at epochs — the
    head-end loop of the paper's Fig. 1. Who executes a delta differs
    by shape: {!Controller.node} is a single controller,
    [Shard.Router.node] routes across shards and [Replica.Group.node]
    replicates a primary. Drivers (the replay CLI, the discrete-event
    simulator) are written once against this record. *)

type t = {
  apply : Delta.t -> View.applied;
  apply_batch : Delta.t list -> unit;
      (** bit-identical to {!apply} on each delta in order *)
  view : unit -> View.t;
      (** the world new join specs are drawn against: the controller's
          view, the router's unsharded mirror, the primary's view *)
  utility : unit -> float;  (** utility of the plan being served *)
  replan : unit -> unit;  (** force an epoch boundary *)
  report : unit -> Counters.report;
  close : unit -> unit;  (** release what the node owns (logs, links) *)
}
