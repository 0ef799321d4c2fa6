(* Shed responses carry a retry_after_ms hint that, until now, nothing
   consumed.  This is the consumer: a bounded exponential-backoff
   resubmit loop.  One attempt function is injected by the caller (the
   soak driver resubmits through a one-line run_batch), and the loop
   guarantees every shed request terminates in one of exactly two
   observable states — completed (possibly after several sheds) or
   given up with the last response in hand.  Nothing is ever silently
   dropped. *)

type policy = { max_retries : int; base_ms : int; cap_ms : int }

let default_policy = { max_retries = 6; base_ms = 10; cap_ms = 2000 }

type outcome =
  | Completed of { response : Engine.response; retries : int }
  | Gave_up of { last : Engine.response; retries : int }

let backoff_ms policy ~attempt ~retry_after_ms =
  (* honor the engine's hint but never back off less than the
     exponential floor (a hot engine hints 0 early on), and never more
     than the cap (a deep queue can hint minutes) *)
  let exp_ms =
    (* attempt is 0-based; shifting by >= 30 would overflow fast *)
    let shift = min attempt 20 in
    policy.base_ms * (1 lsl shift)
  in
  min policy.cap_ms (max retry_after_ms exp_ms)

let is_shed (r : Engine.response) =
  match r.Engine.reply with Engine.Shed _ -> true | _ -> false

let default_sleep ms = if ms > 0 then Unix.sleepf (float_of_int ms /. 1000.0)

let resubmit ?(policy = default_policy) ?(sleep = default_sleep) ~attempt first =
  let rec go retries (last : Engine.response) =
    match last.Engine.reply with
    | Engine.Shed { retry_after_ms } when retries < policy.max_retries ->
      sleep (backoff_ms policy ~attempt:retries ~retry_after_ms);
      go (retries + 1) (attempt ())
    | Engine.Shed _ -> Gave_up { last; retries }
    | Engine.Result _ | Engine.Error _ -> Completed { response = last; retries }
  in
  go 0 first
