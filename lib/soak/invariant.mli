(** Per-response invariant checks: the soak farm's soundness oracle.

    Every generated job carries an {!expect} describing what a correct
    service must answer; {!check} validates the exact response bytes a
    client would see (cache hits and coalesced replies included),
    keying off the canonical result-text markers the job renderings
    expose — the same markers the CLI and golden tests pin. *)

type expect =
  | Status_ok  (** any ok result (litmus, fuzz, model, ring) *)
  | Check_clean  (** the sanitizer row must end "ok" *)
  | Perturb_legal
      (** no illegal outcome, no finding on forbidden tests:
          ["sweep: OK"], with a parseable drift total *)
  | Fix_must_repair
      (** the generator built the skeleton so a repair is needed and
          reachable: "already sound", a REDUNDANT repair, or a
          complete-but-empty search are all violations *)
  | Opt_sound  (** verifier accepts and the fence count did not grow *)

val expect_to_string : expect -> string

type verdict = {
  ok : bool;
  reason : string option;  (** set iff not ok *)
  drift : float;
      (** perturb jobs: the result's total-variation drift total
          (0 otherwise) — the farm's drift accounting feeds off it *)
}

val check : expect -> Armb_service.Engine.response -> verdict
(** [Error] replies are always violations; [Shed] replies must not
    reach the checker (the driver resubmits them once the engine is
    idle) and are flagged as driver bugs if they do. *)
