"""``python -m supercolor``: the same as the supercolor command."""
from .cli import main

if __name__ == "__main__":
    main()
