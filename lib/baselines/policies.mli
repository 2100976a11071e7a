(** Baseline admission policies.

    {!threshold} is the state of practice the paper's introduction
    describes: requests are admitted first-come-first-served so long as
    every resource stays under a safety margin — utilities are ignored.
    {!random_order} and {!utility_order} are the natural strawmen:
    the same admission rule under a random, respectively
    highest-total-utility-first, arrival order.

    The rule all three share: consider streams in the policy's order;
    transmit a stream when it keeps every server budget within
    [margin] (default 1.0) of its cap, and deliver it to each
    interested user (in user order) whose capacities it keeps within
    [margin]. A transmitted stream that no user can take is skipped
    (not charged). *)

val threshold :
  ?margin:float -> Mmd.Instance.t -> Mmd.Assignment.t
(** The shared rule in identity order — FCFS threshold admission
    control. *)

val random_order :
  Prelude.Rng.t -> Mmd.Instance.t -> Mmd.Assignment.t
(** The shared rule in a uniformly random order. *)

val utility_order : Mmd.Instance.t -> Mmd.Assignment.t
(** The shared rule with streams sorted by decreasing total utility —
    value-aware but cost-blind (contrast with the paper's
    cost-effectiveness greedy). *)
