(* The spin budget starts at [min_spins] iterations and doubles up to
   [max_spins]. *)
let min_spins = 8
let max_spins = 1024

type t = { mutable current : int }

let create () = { current = min_spins }

let once t =
  for _ = 1 to t.current do
    Domain.cpu_relax ()
  done;
  (* [Thread.yield] only switches between the systhreads of this domain;
     a zero-length sleep is a real system call, so the OS can run the
     domain this spinner waits for. *)
  if t.current >= max_spins then Unix.sleepf 0.0 else t.current <- t.current * 2

let reset t = t.current <- min_spins

let wait ready =
  if not (ready ()) then begin
    let b = create () in
    once b;
    while not (ready ()) do
      once b
    done
  end

let poll f =
  match f () with
  | Some v -> v
  | None ->
    let b = create () in
    let rec go () =
      once b;
      match f () with Some v -> v | None -> go ()
    in
    go ()
