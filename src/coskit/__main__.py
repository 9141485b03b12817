"""`python -m coskit`: the `coskit` command."""

from .cli import main

if __name__ == "__main__":
    main()
