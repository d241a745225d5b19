"""Built-in demonstration scenarios with pinned expected outputs.

Each fixture is self-contained scenario text: it declares its own
system and asserts every printed value, so running one is a regression
check in itself.  Groups bundle related fixtures for the command line.
"""

_TRIVIAL = """\
# the empty relation: its boundary collapses to the bottom constant
system ;2
point bottom = |1
point top = |2
ideal S = empty
bf phi = boundary S
bf floor = const bottom
boundary S expect floor
eval phi top expect bottom
eval phi bottom expect bottom
member S bottom bottom expect no
member S bottom top expect no
classify join phi expect minimal_form
classify meet phi expect phi_ab
classify meet-set S expect irreducible
sandwich S floor expect yes
"""

_FULL = """\
# the whole relation: its boundary is the identity
system ;2
ideal S = full
bf id = identity
boundary S expect id
member S 1|2 1|2 expect yes
member S 12|1 21|1 expect yes
eval id 2|1 expect 2|1
classify meet id expect identity_form
classify meet-set S expect irreducible
sandwich S id expect yes
"""

_MAXIMAL_GAP = """\
# drop one diagonal pair at a point with a gap below:
# the boundary dips to the predecessor at that single column
system ;2
point a = 2|1
point pa = 1|2
point top = |2
ideal S = strip a a
bf phi = boundary S
eval phi a expect pa
eval phi pa expect pa
eval phi top expect top
member S |1 a expect yes
member S a a expect no
classify meet phi expect phi_ab
classify meet-set S expect irreducible
sandwich S phi expect yes
"""

_MAXIMAL_NOGAP = """\
# drop one diagonal pair at a point with no gap below:
# closure puts it back, so the boundary stays the identity
system ;2
point a = |12
ideal S = strip a a
ideal F = full
bf id = identity
boundary S expect id
boundary F expect id
member S a a expect no
member S 12|1 21|1 expect yes
classify meet-set S expect irreducible
classify meet id expect identity_form
sandwich S id expect yes
"""

_STRIP_PAIR = """\
# a linked pair with no gap below: reinstating the pair moves
# membership at exactly one spot but never moves the boundary
system ;2
point a = |12
point b = 2|21
ideal S = strip a b
ideal T = strip_plus a b
bf phi = boundary S
boundary T expect phi
eval phi b expect a
member S a b expect no
member T a b expect yes
member S 12|1 21|1 expect yes
classify meet phi expect phi_ab
classify meet-set S expect irreducible
classify meet-set T expect irreducible
"""

_PRIME_VARIANT = """\
# strip the diagonal off the plateau set: the boundary drops to
# predecessors off the plateau, takes no gap-below values, and is
# its own left companion; the hull restores exactly the pair (a, b)
system ;2
point a = |12
point b = 2|21
ideal S = strip a b
bf phi0 = boundary S
bf phi = minus phi0
ideal Sp = open phi0
ideal Tp = hull phi
boundary Sp expect phi
boundary Tp expect phi
minus phi expect phi
equiv phi0 phi expect yes
eval phi b expect a
member Sp a b expect no
member Tp a b expect yes
member Sp 111|21 b expect yes
member Tp 111|21 b expect yes
"""

_FIXTURES = {
    "trivial": _TRIVIAL,
    "full": _FULL,
    "maximal-gap": _MAXIMAL_GAP,
    "maximal-nogap": _MAXIMAL_NOGAP,
    "strip-pair": _STRIP_PAIR,
    "prime-variant": _PRIME_VARIANT,
}

FIXTURE_NAMES = tuple(_FIXTURES)

FIXTURE_GROUPS = {
    "section2": ("trivial", "full"),
    "section3": ("maximal-gap", "maximal-nogap", "strip-pair", "prime-variant"),
    "all": FIXTURE_NAMES,
}


def emit_fixture(name: str) -> str:
    """Scenario text of the named fixture."""
    if name not in _FIXTURES:
        raise ValueError(
            f"unknown fixture {name!r}; choose from {', '.join(FIXTURE_NAMES)}")
    return _FIXTURES[name]


def fixture_group(group: str) -> tuple:
    """Fixture names of a group; a fixture name is a group of one."""
    if group not in FIXTURE_GROUPS and group not in _FIXTURES:
        raise ValueError(
            f"unknown group {group!r}; choose from "
            f"{', '.join(FIXTURE_GROUPS)} or a fixture: {', '.join(FIXTURE_NAMES)}")
    return FIXTURE_GROUPS.get(group, (group,))
