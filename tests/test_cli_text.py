"""The CLI's help, usage and argparse error text, pinned byte for byte with
its exit code, so that a change to how the parser is built shows here; and
command lines that only argparse parses (abbreviations, '=' and attached
values, dash-led values), pinned with the output of the run they start."""

import pathlib

import pytest

from mvgroups.cli import run

ROOT = pathlib.Path(__file__).resolve().parent.parent
NAT_BALLS = "r,ball,sphere\n0,1,1\n1,2,1\n2,3,1\n"

# (argv, exit code, stdout, stderr), at a terminal width of 80 columns and
# with config paths relative to the root of the repository
CASES = [
    (('--help',), 0,
     """\
usage: mvgroups [-h] {axioms,growth,dynamics,powers,compare,verify} ...

Exact computation with n-valued groups

positional arguments:
  {axioms,growth,dynamics,powers,compare,verify}
    axioms              check the n-valued group axioms
    growth              growth table of balls and spheres
    dynamics            iterate the dynamic T_z and report xi
    powers              power supports B*/S* of an element
    compare             generating-set growth equivalence sandwich
    verify              run a named verification suite

options:
  -h, --help            show this help message and exit
""",
     ""),
    (('axioms', '--help'), 0,
     """\
usage: mvgroups axioms [-h] -c CONFIG [--budget BUDGET] [--sample SAMPLE]
                       [--format {text,json}]

options:
  -h, --help            show this help message and exit
  -c CONFIG, --config CONFIG
                        instance config JSON file
  --budget BUDGET       node budget override (default from config, else 10^6)
  --sample SAMPLE       the unit and up to SAMPLE more elements of an infinite
                        carrier (a finite one is checked whole)
  --format {text,json}
""",
     ""),
    (('growth', '--help'), 0,
     """\
usage: mvgroups growth [-h] -c CONFIG [--budget BUDGET] [--center CENTER]
                       [--radius RADIUS] [--format {csv,json}]
                       [--emit-elements] [--stats]

options:
  -h, --help            show this help message and exit
  -c CONFIG, --config CONFIG
                        instance config JSON file
  --budget BUDGET       node budget override (default from config, else 10^6)
  --center CENTER       center element word (default: unit)
  --radius RADIUS
  --format {csv,json}
  --emit-elements
  --stats               one JSON line on stderr: the radius reached, and per
                        layer its size
""",
     ""),
    (('dynamics', '--help'), 0,
     """\
usage: mvgroups dynamics [-h] -c CONFIG [--budget BUDGET] --z Z [--y Y]
                         [--steps STEPS] [--bounds] [--classify]
                         [--format {csv,json}] [--emit-elements] [--stats]

options:
  -h, --help            show this help message and exit
  -c CONFIG, --config CONFIG
                        instance config JSON file
  --budget BUDGET       node budget override (default from config, else 10^6)
  --z Z                 word defining z
  --y Y                 starting point word (default: unit)
  --steps STEPS
  --bounds              check the monoid-ball sandwich (coset instances)
  --classify
  --format {csv,json}
  --emit-elements
  --stats               one JSON line on stderr: the radius reached, and per
                        layer its size
""",
     ""),
    (('powers', '--help'), 0,
     """\
usage: mvgroups powers [-h] -c CONFIG [--budget BUDGET] --x X
                       [--radius RADIUS] [--format {csv,json}]
                       [--emit-elements] [--stats]

options:
  -h, --help            show this help message and exit
  -c CONFIG, --config CONFIG
                        instance config JSON file
  --budget BUDGET       node budget override (default from config, else 10^6)
  --x X                 base element word
  --radius RADIUS
  --format {csv,json}
  --emit-elements
  --stats               one JSON line on stderr: the radius reached, and per
                        layer its size
""",
     ""),
    (('compare', '--help'), 0,
     """\
usage: mvgroups compare [-h] -c CONFIG [--budget BUDGET] --gens2 GENS2
                        [--center2 CENTER2] [--radius RADIUS]

options:
  -h, --help            show this help message and exit
  -c CONFIG, --config CONFIG
                        instance config JSON file
  --budget BUDGET       node budget override (default from config, else 10^6)
  --gens2 GENS2         comma-separated words for S'
  --center2 CENTER2     second center word (default: unit)
  --radius RADIUS
""",
     ""),
    (('verify', '--help'), 0,
     """\
usage: mvgroups verify [-h] -c CONFIG [--budget BUDGET] --suite
                       {example32,thm43,thm48,lemma47,example46,proof34}
                       [--radius RADIUS]

options:
  -h, --help            show this help message and exit
  -c CONFIG, --config CONFIG
                        instance config JSON file
  --budget BUDGET       node budget override (default from config, else 10^6)
  --suite {example32,thm43,thm48,lemma47,example46,proof34}
  --radius RADIUS
""",
     ""),
    ((), 2,
     "",
     """\
usage: mvgroups [-h] {axioms,growth,dynamics,powers,compare,verify} ...
mvgroups: error: the following arguments are required: command
"""),
    (('bogus',), 2,
     "",
     """\
usage: mvgroups [-h] {axioms,growth,dynamics,powers,compare,verify} ...
mvgroups: error: argument command: invalid choice: 'bogus' (choose from 'axioms', 'growth', 'dynamics', 'powers', 'compare', 'verify')
"""),
    (('growth',), 2,
     "",
     """\
usage: mvgroups growth [-h] -c CONFIG [--budget BUDGET] [--center CENTER]
                       [--radius RADIUS] [--format {csv,json}]
                       [--emit-elements] [--stats]
mvgroups growth: error: the following arguments are required: -c/--config
"""),
    (('axioms', '-c', 'x', '--sample', '-1'), 2,
     "",
     """\
usage: mvgroups axioms [-h] -c CONFIG [--budget BUDGET] [--sample SAMPLE]
                       [--format {text,json}]
mvgroups axioms: error: argument --sample: must be >= 0, got -1
"""),
    (('growth', '-c', 'x', '--bogus'), 2,
     "",
     """\
usage: mvgroups [-h] {axioms,growth,dynamics,powers,compare,verify} ...
mvgroups: error: unrecognized arguments: --bogus
"""),
    (('axioms', '-c', 'x', '--sample', 'x'), 2,
     "",
     """\
usage: mvgroups axioms [-h] -c CONFIG [--budget BUDGET] [--sample SAMPLE]
                       [--format {text,json}]
mvgroups axioms: error: argument --sample: invalid int value: 'x'
"""),
    (('growth', '-c', 'configs/nat.json', '--rad', '2'), 0, NAT_BALLS, ""),
    (('growth', '-c', 'configs/nat.json', '--radius=2'), 0, NAT_BALLS, ""),
    (('growth', '-cconfigs/nat.json', '--radius', '2'), 0, NAT_BALLS, ""),
    (('compare', '-c', 'configs/nat.json', '--gens2', '1,2', '--radius', '-1'), 2,
     "",
     "error: radius must be >= 0\n"),
    (('growth', '-c', 'configs/nat.json', '--center', '-'), 2,
     "",
     "error: expected a term (at offset 0)\n"),
]


@pytest.mark.parametrize("argv,code,out,err", CASES,
                         ids=[" ".join(case[0]) or "no-arguments" for case in CASES])
def test_cli_text_is_pinned(capsys, monkeypatch, argv, code, out, err):
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.chdir(ROOT)
    assert run(list(argv)) == code
    assert capsys.readouterr() == (out, err)
