let enabled () = false

let set_enabled (_ : bool) = ()
