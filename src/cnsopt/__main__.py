import sys

from .cli import run_cli

sys.exit(run_cli())
