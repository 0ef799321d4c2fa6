(* Per-response invariant checks: the soak farm's soundness oracle.

   Each generated job carries an [expect] describing what a correct
   service MUST answer for it, and the checks key off the canonical
   result-text markers the job renderings already expose (the same
   markers the CLI reports and the golden tests pin):

   - check rows end "ok"/"FAIL" (Sim_runner.pp_check_row);
   - perturb results end "drift-total=... sweep: OK|VIOLATIONS"
     (Job.run's Perturb trailer);
   - fix outcomes print "already sound", "N repair(s)",
     "budget exhausted" and ", REDUNDANT" (Report.pp_outcome);
   - opt results print "fences I -> O ... sound=B" (Job.run's Opt
     rendering).

   Checking text rather than re-running the job is the point: the soak
   validates what the service actually answered, on the exact bytes a
   client would see, cache hits and coalesced replies included. *)

module Engine = Armb_service.Engine
module Job = Armb_service.Job

type expect =
  | Status_ok  (** any ok result (litmus, fuzz, model, ring) *)
  | Check_clean  (** the sanitizer row must end "ok" *)
  | Perturb_legal  (** no illegal outcomes / findings: "sweep: OK" *)
  | Fix_must_repair
      (** built so a repair is needed and exists: neither "already
          sound" nor a redundant repair nor a complete-but-empty
          search is acceptable *)
  | Opt_sound  (** verifier must accept and fences must not increase *)

let expect_to_string = function
  | Status_ok -> "status-ok"
  | Check_clean -> "check-clean"
  | Perturb_legal -> "perturb-legal"
  | Fix_must_repair -> "fix-must-repair"
  | Opt_sound -> "opt-sound"

type verdict = {
  ok : bool;
  reason : string option;  (** set iff not ok *)
  drift : float;  (** perturb only: the job's total-variation total *)
}

let pass = { ok = true; reason = None; drift = 0.0 }
let fail reason = { ok = false; reason = Some reason; drift = 0.0 }

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  m = 0
  ||
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* parse the float following [marker] (e.g. "drift-total=") *)
let float_after ~marker s =
  let n = String.length s and m = String.length marker in
  let rec find i = if i + m > n then None else if String.sub s i m = marker then Some (i + m) else find (i + 1) in
  match find 0 with
  | None -> None
  | Some start ->
    let stop = ref start in
    while
      !stop < n
      && (match s.[!stop] with '0' .. '9' | '.' | '-' | 'e' | '+' -> true | _ -> false)
    do
      incr stop
    done;
    float_of_string_opt (String.sub s start (!stop - start))

let int_pair_after ~marker s =
  let n = String.length s and m = String.length marker in
  let rec find i = if i + m > n then None else if String.sub s i m = marker then Some (i + m) else find (i + 1) in
  match find 0 with
  | None -> None
  | Some start -> (
    try Scanf.sscanf (String.sub s start (n - start)) " %d -> %d" (fun a b -> Some (a, b))
    with Scanf.Scan_failure _ | Failure _ | End_of_file -> None)

let check_text expect text =
  match expect with
  | Status_ok -> pass
  | Check_clean ->
    if contains ~sub:"FAIL" text then fail "sanitizer row FAILed"
    else if contains ~sub:" ok" text then pass
    else fail "no verdict marker in check row"
  | Perturb_legal -> (
    if not (contains ~sub:"sweep: OK" text) then
      fail "perturb sweep reported VIOLATIONS (illegal outcome or finding)"
    else
      match float_after ~marker:"drift-total=" text with
      | Some d -> { pass with drift = d }
      | None -> fail "perturb result missing drift-total marker")
  | Fix_must_repair ->
    if contains ~sub:"already sound" text then
      fail "repair expected but fix reported already sound"
    else if contains ~sub:", REDUNDANT" text then fail "REDUNDANT repair reported"
    else if contains ~sub:" 0 repair(s)" text && not (contains ~sub:"budget exhausted" text)
    then fail "complete search found no repair on a repairable skeleton"
    else pass
  | Opt_sound -> (
    if contains ~sub:"sound=false" text then fail "optimizer verdict unsound"
    else
      match int_pair_after ~marker:"fences" text with
      | Some (fin, fout) when fout > fin ->
        fail (Printf.sprintf "fence count grew %d -> %d" fin fout)
      | Some _ -> pass
      | None -> fail "opt result missing fence counts")

(* Sheds never reach here: the driver resubmits each one after its
   wave drains, when the engine is idle and cannot shed it.
   Error replies are always violations: the generator only emits
   well-formed jobs, so the service has no excuse. *)
let check expect (r : Engine.response) =
  match r.Engine.reply with
  | Engine.Result { result; _ } -> check_text expect result.Job.text
  | Engine.Error m -> fail ("service error: " ^ m)
  | Engine.Shed _ -> fail "shed response reached the invariant checker (driver bug)"
