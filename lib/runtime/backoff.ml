type t = { min_spins : int; max_spins : int; mutable current : int }

let create ?(min_spins = 8) ?(max_spins = 1024) () =
  if min_spins <= 0 || max_spins < min_spins then invalid_arg "Backoff.create";
  { min_spins; max_spins; current = min_spins }

let once t =
  for _ = 1 to t.current do
    Domain.cpu_relax ()
  done;
  (* [Thread.yield] only switches between the systhreads of this domain;
     a zero-length sleep is a real system call, so the OS can run the
     domain this spinner waits for. *)
  if t.current >= t.max_spins then Unix.sleepf 0.0 else t.current <- t.current * 2

let reset t = t.current <- t.min_spins
