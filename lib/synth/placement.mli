(** Placement IR for the fence synthesizer: candidate point edits over a
    {!Armb_litmus.Lang.test}.

    Every edit is {e value-neutral}: it inserts a fence, upgrades an
    existing access to acquire/release, or threads a bogus address
    dependency from an earlier load — it never changes what values are
    stored, so the edited test computes the same outcomes as the
    original wherever the architecture forces order.  (Data
    dependencies are deliberately absent from the vocabulary: making a
    store's value register-dependent changes the stored value, which a
    repair must not do.) *)

module Lang = Armb_litmus.Lang

type edit =
  | Insert_fence of { thread : int; pos : int; fence : Lang.fence }
      (** insert [fence] before instruction [pos] of [thread] *)
  | Make_acquire of { thread : int; idx : int }
      (** turn the load at [idx] into a load-acquire (LDAR) *)
  | Make_release of { thread : int; idx : int }
      (** turn the store at [idx] into a store-release (STLR) *)
  | Add_addr_dep of { thread : int; idx : int; reg : Lang.reg }
      (** bogus address dependency: the access at [idx] indexes with the
          value loaded into [reg] by an earlier load of the same thread *)

val apply : Lang.test -> edit list -> Lang.test
(** Apply an edit set.  Attribute edits (acquire/release/addr-dep) are
    applied first so instruction indices stay valid, then fence
    insertions from the highest position down; the result is renamed
    ["<name>+fixN"] with [N] the edit count. *)

val candidates : Lang.test -> edit list
(** Every applicable point edit, cheapest first by the cost prior
    (see {!total_cost}):
    all five fences at every inter-instruction gap, acquire upgrades for
    plain loads, release upgrades for plain stores, and address
    dependencies from each load to each later dependency-free access
    that does not already consume its register. *)

val fence_cost : Lang.fence -> int
(** The fence rungs of the cost prior: one-direction DMB 4, ISB 6,
    DMB 8, DSB 20.  The optimizer's weakening pass ranks fences by it
    too. *)

val total_cost : edit list -> int
(** The sum of each edit's architectural cost prior, used only to order
    the search so cheap repairs are found first — platform-measured
    cycles (see {!Cost}) decide winners.  Ranks follow the paper's
    Table 3 / Figure 3: dependency < acquire < release < one-direction
    DMB < ISB < DMB < DSB. *)

val thread_of : edit -> int

val advisor_hint : Lang.test -> edit -> Armb_core.Ordering.t option
(** What {!Armb_core.Advisor.best} recommends for the program point the
    edit lands on (classified by the nearest preceding access and the
    accesses that follow it); [None] when the point has no preceding
    access to order. *)

val edit_to_string : Lang.test -> edit -> string
